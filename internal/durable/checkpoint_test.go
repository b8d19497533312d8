package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/transport"
)

func sampleSnapshot() transport.Snapshot {
	return transport.Snapshot{
		State: []float64{0, 1.5, 2.25, 1e-300, 4096},
		Count: 4096,
		Epoch: 19,
		Info:  transport.Info{Mechanism: "strategy", Domain: 5, Epsilon: 1.25, Digest: "00f1e2d3c4b5a697"},
	}
}

func sampleKeys() []transport.KeyCount {
	return []transport.KeyCount{
		{Key: "00f1e2d3c4b5a6978877665544332211", Reports: 4090},
		{Key: "fefefefefefefefe0101010101010101", Reports: 6},
	}
}

// keyCollector builds the table readCheckpointFile walks: visit is its
// eachKey. The reader hands out its own buffer, so each key is copied.
type keyCollector []transport.KeyCount

func (c *keyCollector) visit(key []byte, reports int64) {
	*c = append(*c, transport.KeyCount{Key: string(key), Reports: reports})
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		wantSnap, wantKeys := sampleSnapshot(), sampleKeys()
		path, err := writeCheckpointFile(dir, 7, wantSnap, wantKeys, compress)
		if err != nil {
			t.Fatal(err)
		}
		var keys keyCollector
		snap, gz, err := readCheckpointFile(path, 7, keys.visit)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if gz != compress {
			t.Fatalf("compress=%v reported %v", compress, gz)
		}
		if snap.Count != wantSnap.Count || snap.Epoch != wantSnap.Epoch || snap.Info != wantSnap.Info || !reflect.DeepEqual(snap.State, wantSnap.State) {
			t.Fatalf("compress=%v: snapshot changed across the file: %+v", compress, snap)
		}
		if !reflect.DeepEqual([]transport.KeyCount(keys), wantKeys) {
			t.Fatalf("compress=%v: key table changed across the file: %+v", compress, keys)
		}
		// No temp litter survives the atomic rename.
		tmps, err := filepath.Glob(filepath.Join(dir, ".checkpoint-*.tmp"))
		if err != nil || len(tmps) != 0 {
			t.Fatalf("temp files left behind: %v (%v)", tmps, err)
		}
	}
}

// A compressed checkpoint of a flat integer accumulator — the unary
// mechanisms' shape — must actually be smaller than the raw one.
func TestCheckpointCompressionShrinks(t *testing.T) {
	snap := transport.Snapshot{
		State: make([]float64, 4096),
		Count: 100000,
		Epoch: 3,
		Info:  transport.Info{Mechanism: "OUE", Domain: 4096, Epsilon: 1},
	}
	for i := range snap.State {
		snap.State[i] = float64(i % 7)
	}
	dir := t.TempDir()
	rawPath, err := writeCheckpointFile(dir, 1, snap, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	gzPath, err := writeCheckpointFile(dir, 2, snap, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	rawFi, err := os.Stat(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	gzFi, err := os.Stat(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if gzFi.Size() >= rawFi.Size()/2 {
		t.Fatalf("compression saved too little: raw %d bytes, gzip %d", rawFi.Size(), gzFi.Size())
	}
}

// Every single-byte corruption of a checkpoint file — either version — must
// be refused: header, CRC, payload, or gzip stream, there is no byte whose
// flip the reader tolerates. The sweep runs once with no visitor and once
// with a collecting one: walking the key table validates exactly what
// building it validates.
func TestCheckpointFileRejectsCorruption(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, walkOnly := range []bool{true, false} {
			read := func(path string, wantSeq uint64) error {
				var visit func([]byte, int64)
				if !walkOnly {
					visit = new(keyCollector).visit
				}
				_, _, err := readCheckpointFile(path, wantSeq, visit)
				return err
			}
			dir := t.TempDir()
			path, err := writeCheckpointFile(dir, 7, sampleSnapshot(), sampleKeys(), compress)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := read(path, 7); err != nil {
				t.Fatalf("compress=%v walkOnly=%v: intact file refused: %v", compress, walkOnly, err)
			}
			for i := range data {
				mut := append([]byte(nil), data...)
				mut[i] ^= 0x01
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := read(path, 7); err == nil {
					t.Fatalf("compress=%v walkOnly=%v: reader accepted byte %d flipped", compress, walkOnly, i)
				}
			}
			// Trailing bytes after the declared payload are corruption too.
			if err := os.WriteFile(path, append(data, 0), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := read(path, 7); err == nil {
				t.Fatalf("compress=%v walkOnly=%v: reader accepted trailing bytes", compress, walkOnly)
			}
			// And a sequence that disagrees with the filename is refused.
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := read(path, 8); err == nil {
				t.Fatalf("compress=%v walkOnly=%v: reader accepted a mismatched sequence", compress, walkOnly)
			}
		}
	}
}

// The writer's allocations are the file's, not the table's: one fixed entry
// buffer serves every key, so a full key table costs what an empty one does.
func TestWriteCheckpointFileAllocsIndependentOfKeyTable(t *testing.T) {
	full := make([]transport.KeyCount, transport.IdempotencyHorizon)
	for i := range full {
		full[i] = transport.KeyCount{Key: fmt.Sprintf("key-%08d", i), Reports: int64(i)}
	}
	dir, snap := t.TempDir(), sampleSnapshot()
	write := func(keys []transport.KeyCount) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := writeCheckpointFile(dir, 7, snap, keys, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Equal, give or take a pooled object (sync.Pool drops Puts under -race).
	if none, all := write(nil), write(full); all > none+2 {
		t.Fatalf("writeCheckpointFile allocates %v times with %d keys, %v with none", all, len(full), none)
	}
}

// BenchmarkCheckpointStreamGzip measures the streaming checkpoint writer with
// the gzip layer the unary mechanisms opt into: per op, one n=4096 snapshot
// through writeCheckpointFile (header patch, CRC, atomic rename, fsync dance
// included). The raw writer is the ledger's durable.checkpoint_ms.
func BenchmarkCheckpointStreamGzip(b *testing.B) {
	const n = 4096
	snap := transport.Snapshot{
		State: make([]float64, n),
		Count: 1 << 17,
		Epoch: 5,
		Info:  transport.Info{Mechanism: "OUE", Domain: n, Epsilon: 1},
	}
	for i := range snap.State {
		snap.State[i] = float64(i % 7)
	}
	keys := []transport.KeyCount{{Key: "00f1e2d3c4b5a6978877665544332211", Reports: 1 << 17}}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeCheckpointFile(dir, 3, snap, keys, true); err != nil {
			b.Fatal(err)
		}
	}
}
