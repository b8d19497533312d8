package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The streamed checkpoint writer replaced the buffered encoder on the write
// path; its uncompressed output must stay byte-identical — the buffered
// encoder remains as the reference codec precisely to pin this.
func TestStreamedCheckpointMatchesBufferedEncoder(t *testing.T) {
	snap := transport.Snapshot{
		State: []float64{0, 1.5, 2.25, 1e-300},
		Count: 4096,
		Epoch: 19,
		Info:  transport.Info{Mechanism: "strategy", Domain: 4, Epsilon: 1.25, Digest: "00f1e2d3c4b5a697"},
	}
	keys := []transport.KeyCount{
		{Key: "00f1e2d3c4b5a6978877665544332211", Reports: 4090},
		{Key: "fefefefefefefefe0101010101010101", Reports: 6},
	}
	want, err := encodeCheckpoint(7, snap, keys)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := writeCheckpointFile(dir, 7, snap, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed checkpoint differs from the buffered encoder:\n got %x\nwant %x", got, want)
	}
	// And the buffered decoder reads the streamed file.
	seq, dsnap, dkeys, err := DecodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || dsnap.Count != snap.Count || !reflect.DeepEqual(dkeys, keys) {
		t.Fatalf("buffered decode of the streamed file: seq=%d %+v %+v", seq, dsnap, dkeys)
	}
}

// historyStore builds a store with an aggressive ladder and cuts n
// checkpoints at epochs 1..n, count and state tracking the epoch.
func historyStore(t *testing.T, dir string, opts Options, n int) *Store {
	t.Helper()
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := s.Append(batch(i), ""); err != nil {
			t.Fatal(err)
		}
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		snap := transport.Snapshot{State: []float64{float64(i)}, Count: float64(i), Epoch: uint64(i)}
		if err := s.WriteCheckpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestStoreSnapshotAtServesEveryRetainedEpoch(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		s := historyStore(t, dir, Options{HistoryKeep: 2, Gzip: gz}, 8)
		retained := s.RetainedEpochs()
		if want := []uint64{4, 6, 7, 8}; !reflect.DeepEqual(retained, want) {
			t.Fatalf("gzip=%v: retained %v, want %v", gz, retained, want)
		}
		for _, e := range retained {
			snap, err := s.SnapshotAt(e, false)
			if err != nil {
				t.Fatalf("gzip=%v: SnapshotAt(%d): %v", gz, e, err)
			}
			if snap.Epoch != e || snap.Count != float64(e) || snap.State[0] != float64(e) {
				t.Fatalf("gzip=%v: SnapshotAt(%d) served %+v", gz, e, snap)
			}
		}
		// An exact read of a coarsened-away epoch is a definitive miss carrying
		// the retained range and the floor epoch.
		_, err := s.SnapshotAt(5, false)
		var enr *transport.EpochNotRetainedError
		if !errors.As(err, &enr) {
			t.Fatalf("gzip=%v: SnapshotAt(5) = %v, want EpochNotRetainedError", gz, err)
		}
		if enr.Requested != 5 || enr.Oldest != 4 || enr.Newest != 8 || enr.Nearest != 4 {
			t.Fatalf("gzip=%v: miss detail %+v", gz, enr)
		}
		// The nearest (floor) read serves epoch 4 instead.
		snap, err := s.SnapshotAt(5, true)
		if err != nil || snap.Epoch != 4 {
			t.Fatalf("gzip=%v: nearest SnapshotAt(5) = %+v, %v", gz, snap, err)
		}
		// Below the oldest retained epoch even nearest has nothing.
		if _, err := s.SnapshotAt(3, true); !errors.As(err, &enr) {
			t.Fatalf("gzip=%v: SnapshotAt(3, nearest) = %v, want EpochNotRetainedError", gz, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// A reopened store serves the identical history: the manifest (or the
		// rebuild) carries the retained set across the restart.
		s2, _, err := Open(dir, Options{HistoryKeep: 2, Gzip: gz})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, retained) {
			t.Fatalf("gzip=%v: reopened retained %v, want %v", gz, got, retained)
		}
		for _, e := range retained {
			snap, err := s2.SnapshotAt(e, false)
			if err != nil || snap.Epoch != e || snap.Count != float64(e) {
				t.Fatalf("gzip=%v: reopened SnapshotAt(%d) = %+v, %v", gz, e, snap, err)
			}
		}
	}
}

// Gzip mode compresses closed retained segments; recovery must replay them
// transparently alongside the raw final segment.
func TestStoreGzipSegmentsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Gzip: true, HistoryKeep: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{1}, Count: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(2), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{2}, Count: 2, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(3), "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Segment 0 is behind the predecessor checkpoint — pruned. Segment 1 is
	// closed but still needed by the corrupt-newest fallback → compressed.
	// Segment 2 is the live tail and stays raw.
	if _, err := os.Stat(filepath.Join(dir, gzSegmentName(1))); err != nil {
		t.Fatalf("closed segment 1 was not compressed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("raw segment 1 should be gone after compression: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatalf("live tail segment 2 missing: %v", err)
	}

	// Corrupt-newest-checkpoint fallback now replays the GZIPPED segment 1.
	latest := filepath.Join(dir, checkpointName(2))
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(latest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var log replayLog
	s2, rec, err := Open(dir, log.options("", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.HasCheckpoint || rec.CheckpointSeq != 1 {
		t.Fatalf("fallback recovery %+v", rec)
	}
	if rec.ReplayedRecords != 2 || log.records[0].Key != "b" || log.records[1].Key != "c" {
		t.Fatalf("replayed %+v", log.records)
	}
}

// The satellite's crash-consistency sweep at the store level: whatever byte
// the manifest is truncated at — including deleted entirely — a reopened
// store must still retain and serve every epoch the checkpoint files hold.
// The manifest is an index, never ground truth.
func TestStoreManifestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s := historyStore(t, dir, Options{HistoryKeep: 2}, 8)
	wantEpochs := s.RetainedEpochs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, manifestName)
	intact, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		t.Helper()
		s2, _, err := Open(dir, Options{HistoryKeep: 2})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer s2.Close()
		if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, wantEpochs) {
			t.Fatalf("%s: retained %v, want %v — a damaged manifest silently lost epochs", label, got, wantEpochs)
		}
		for _, e := range wantEpochs {
			snap, err := s2.SnapshotAt(e, false)
			if err != nil || snap.Epoch != e || snap.Count != float64(e) {
				t.Fatalf("%s: SnapshotAt(%d) = %+v, %v", label, e, snap, err)
			}
		}
	}

	for cut := 0; cut <= len(intact); cut++ {
		if err := os.WriteFile(manifestPath, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check("truncated manifest")
	}
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	check("missing manifest")
	// The rebuild also rewrites the manifest, so the NEXT restart is indexed
	// again without reading every checkpoint.
	rebuilt, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest was not rewritten after a rebuild: %v", err)
	}
	if !reflect.DeepEqual(rebuilt, intact) {
		t.Fatalf("rebuilt manifest differs from the original:\n got %x\nwant %x", rebuilt, intact)
	}
}

// A historical read costs one streamed file read that walks the key table
// without building it, so its allocations do not depend on how many keys the
// checkpoint carries.
func TestSnapshotAtAllocsIndependentOfKeyTable(t *testing.T) {
	readAllocs := func(keyed int) float64 {
		s, _, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < keyed; i++ {
			if err := s.Append(batch(i), fmt.Sprintf("key-%08d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{1, 2, 3}, Count: 6, Epoch: 1}); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Keys()); got != keyed {
			t.Fatalf("store tracks %d keys, want %d", got, keyed)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.SnapshotAt(1, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Equal, give or take a pooled object: under -race sync.Pool (fmt's,
	// io.Discard's) drops a share of its Puts. A table built per key differs
	// by three allocations per key.
	if none, full := readAllocs(0), readAllocs(transport.IdempotencyHorizon); full > none+2 {
		t.Fatalf("SnapshotAt allocates %v times over a %d-key checkpoint, %v over a keyless one", full, transport.IdempotencyHorizon, none)
	}
}

// The checkpoint reader hands keys to Open's visitor before it can know the
// file's CRC verdict, so a checkpoint refused at its last byte has already
// streamed its whole table. Open must not let any of it reach the store: the
// recovered table is exactly the predecessor's plus the replayed segments,
// each key once. (This guards the visitor design, not an old bug — the
// parent, which built a table and discarded it on error, passes it too.)
func TestOpenFallbackLeaksNoKeysOfTheCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := func(epoch int, key string) {
		t.Helper()
		if err := s.Append(batch(epoch, epoch), key); err != nil {
			t.Fatal(err)
		}
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{float64(epoch)}, Count: float64(2 * epoch), Epoch: uint64(epoch)}); err != nil {
			t.Fatal(err)
		}
	}
	cut(1, "old") // checkpoint 1 carries {old: 2}
	cut(2, "new") // checkpoint 2 carries {old: 2, new: 2}; segment 1 holds new's record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	latest := filepath.Join(dir, checkpointName(2))
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(latest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.HasCheckpoint || rec.CheckpointSeq != 1 || rec.ReplayedRecords != 1 {
		t.Fatalf("fallback recovery %+v, want checkpoint 1 plus one replayed record", rec)
	}
	want := []transport.KeyCount{{Key: "old", Reports: 2}, {Key: "new", Reports: 2}}
	if got := s2.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered key table %+v, want %+v — the refused checkpoint's keys were counted", got, want)
	}
}

// SnapshotAt resolves epoch → file under the index lock but reads the file
// outside it, and every checkpoint cut prunes coarsened-away files under that
// same lock. A read that loses that race asked for an epoch that is, by the
// time it is answered, no longer retained: it must get the typed miss, never
// a raw "no such file" (which the HTTP layer would answer as a 500).
func TestSnapshotAtRacingPruneIsAMiss(t *testing.T) {
	const cuts = 1200
	s, _, err := Open(t.TempDir(), Options{HistoryKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var served [2]int
	var readErr [2]error
	for r := range readErr {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, e := range s.RetainedEpochs() {
					snap, err := s.SnapshotAt(e, false)
					var enr *transport.EpochNotRetainedError
					switch {
					case err == nil && (snap.Epoch != e || snap.Count != float64(e) || snap.State[0] != float64(e)):
						readErr[r] = fmt.Errorf("SnapshotAt(%d) served %+v", e, snap)
						return
					case err == nil:
						served[r]++
					case !errors.As(err, &enr):
						readErr[r] = fmt.Errorf("SnapshotAt(%d) racing a cut: %w", e, err)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= cuts; i++ {
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{float64(i)}, Count: float64(i), Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for r, err := range readErr {
		if err != nil {
			t.Fatal(err)
		}
		if served[r] == 0 {
			t.Fatal("a reader never served a retained epoch; the race was not exercised")
		}
	}
}
