package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

		// A reopened store serves the identical history: Open rebuilds the
		// index from the checkpoint files.
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

// The checkpoint files are the only record of the retained history: a store
// writes nothing beside its wal-* and checkpoint-* files, and a history.manifest
// left in the directory by an older build — whatever it holds, truncated at
// any byte included — is neither read nor removed. A reopened store retains
// and serves every epoch the checkpoint files hold.
func TestStoreIgnoresLeftoverManifest(t *testing.T) {
	dir := t.TempDir()
	s := historyStore(t, dir, Options{HistoryKeep: 2}, 8)
	wantEpochs := s.RetainedEpochs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); !strings.HasPrefix(n, "wal-") && !strings.HasPrefix(n, "checkpoint-") {
			t.Fatalf("store wrote %s beside its WAL segments and checkpoints", n)
		}
	}

	leftover := filepath.Join(dir, "history.manifest")
	stale := []byte("an epoch index an older build kept beside its checkpoints")
	for cut := 0; cut <= len(stale); cut++ {
		if err := os.WriteFile(leftover, stale[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, err := Open(dir, Options{HistoryKeep: 2})
		if err != nil {
			t.Fatalf("leftover manifest cut at %d: open: %v", cut, err)
		}
		if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, wantEpochs) {
			t.Fatalf("leftover manifest cut at %d: retained %v, want %v", cut, got, wantEpochs)
		}
		for _, e := range wantEpochs {
			snap, err := s2.SnapshotAt(e, false)
			if err != nil || snap.Epoch != e || snap.Count != float64(e) {
				t.Fatalf("leftover manifest cut at %d: SnapshotAt(%d) = %+v, %v", cut, e, snap, err)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(leftover); err != nil || !bytes.Equal(got, stale[:cut]) {
			t.Fatalf("leftover manifest cut at %d was touched: %q, %v", cut, got, err)
		}
	}
}

// checkpointHeadLen is the length of a raw checkpoint's head, the bytes Open
// reads from every retained checkpoint but the restored one: envelope header,
// sequence, snapshot-frame header, count, epoch.
const checkpointHeadLen = envelopeHeaderLen + 8 + 10 + 8 + 8

// Open indexes each older retained checkpoint from its head alone. One
// truncated anywhere inside its head stays out of the index and on disk, and
// every other retained epoch still serves.
func TestOpenIndexSkipsCheckpointTruncatedInItsHead(t *testing.T) {
	for _, gz := range []bool{false, true} {
		src := t.TempDir()
		s := historyStore(t, src, Options{HistoryKeep: 2, Gzip: gz}, 8)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// A gzipped head ends wherever the compressor put it; cutting right
		// after the gzip header (10 bytes) leaves none of it.
		cuts := []int{envelopeHeaderLen + 10}
		if !gz {
			cuts = cuts[:0]
			for cut := 0; cut < checkpointHeadLen; cut++ {
				cuts = append(cuts, cut)
			}
		}
		for _, cut := range cuts {
			dir := t.TempDir()
			copyDir(t, src, dir)
			oldest := filepath.Join(dir, checkpointName(4))
			if err := os.Truncate(oldest, int64(cut)); err != nil {
				t.Fatal(err)
			}
			s2, _, err := Open(dir, Options{HistoryKeep: 2, Gzip: gz})
			if err != nil {
				t.Fatalf("gzip=%v cut=%d: open: %v", gz, cut, err)
			}
			if got, want := s2.RetainedEpochs(), []uint64{6, 7, 8}; !reflect.DeepEqual(got, want) {
				t.Fatalf("gzip=%v cut=%d: retained %v, want %v", gz, cut, got, want)
			}
			for _, e := range []uint64{6, 7, 8} {
				if snap, err := s2.SnapshotAt(e, false); err != nil || snap.Epoch != e || snap.State[0] != float64(e) {
					t.Fatalf("gzip=%v cut=%d: SnapshotAt(%d) = %+v, %v", gz, cut, e, snap, err)
				}
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(oldest); err != nil || fi.Size() != int64(cut) {
				t.Fatalf("gzip=%v cut=%d: the unindexed checkpoint did not stay on disk as it was: %v", gz, cut, err)
			}
		}
	}
}

// A retained checkpoint damaged after its head is indexed — its head parses —
// but SnapshotAt validates the whole file before it serves, so reading it is
// an error, never a wrong snapshot, and never the typed miss. The failed read
// takes it out of the index; the file stays on disk.
func TestOpenIndexListsCheckpointDamagedAfterItsHead(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		s := historyStore(t, dir, Options{HistoryKeep: 2, Gzip: gz}, 8)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, checkpointName(4))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, err := Open(dir, Options{HistoryKeep: 2, Gzip: gz})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s2.RetainedEpochs(), []uint64{4, 6, 7, 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("gzip=%v: retained %v, want %v", gz, got, want)
		}
		var enr *transport.EpochNotRetainedError
		if snap, err := s2.SnapshotAt(4, false); err == nil || errors.As(err, &enr) {
			t.Fatalf("gzip=%v: SnapshotAt over a damaged checkpoint = %+v, %v; want a read error", gz, snap, err)
		}
		if got, want := s2.RetainedEpochs(), []uint64{6, 7, 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("gzip=%v: after the failed read, retained %v, want %v", gz, got, want)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("gzip=%v: the damaged checkpoint left the disk: %v", gz, err)
		}
		for _, e := range []uint64{6, 7, 8} {
			if snap, err := s2.SnapshotAt(e, false); err != nil || snap.Epoch != e {
				t.Fatalf("gzip=%v: SnapshotAt(%d) = %+v, %v", gz, e, snap, err)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// No CRC has checked an older checkpoint's head when Open indexes it, so a
// damaged head can carry any epoch. It must never hide an intact checkpoint:
// heads out of ascending order make Open validate every older file, which
// leaves the damaged one out, and a wrong epoch that keeps the order is taken
// out of the index by the first read that fails, a nearest read then serving
// the next older checkpoint.
func TestOpenIndexSurvivesDamagedHeadEpoch(t *testing.T) {
	src := t.TempDir()
	s := historyStore(t, src, Options{HistoryKeep: 2}, 8) // retains epochs 4 6 7 8, each in the checkpoint of that sequence
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seq, epoch uint64   // the checkpoint whose head is damaged, and the epoch it then declares
		listed     []uint64 // RetainedEpochs after Open
		nearest    uint64   // what SnapshotAt(seq, nearest) serves: the newest intact epoch below seq
		after      []uint64 // RetainedEpochs after that read
	}{
		{7, 2, []uint64{4, 6, 8}, 6, []uint64{4, 6, 8}},    // below an intact older epoch
		{7, 6, []uint64{4, 6, 8}, 6, []uint64{4, 6, 8}},    // equal to an intact older epoch
		{7, 9, []uint64{4, 6, 8}, 6, []uint64{4, 6, 8}},    // past the restored checkpoint's epoch
		{6, 5, []uint64{4, 5, 7, 8}, 4, []uint64{4, 7, 8}}, // in order: listed until a read fails
	} {
		label := fmt.Sprintf("checkpoint %d declaring epoch %d", c.seq, c.epoch)
		dir := t.TempDir()
		copyDir(t, src, dir)
		path := filepath.Join(dir, checkpointName(c.seq))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(data[checkpointHeadLen-8:], c.epoch)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, err := Open(dir, Options{HistoryKeep: 2})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, c.listed) {
			t.Fatalf("%s: retained %v, want %v", label, got, c.listed)
		}
		for _, e := range []uint64{4, 6, 7, 8} {
			if e == c.seq {
				continue
			}
			if snap, err := s2.SnapshotAt(e, false); err != nil || snap.Epoch != e || snap.State[0] != float64(e) {
				t.Fatalf("%s: SnapshotAt(%d) = %+v, %v", label, e, snap, err)
			}
		}
		if snap, err := s2.SnapshotAt(c.seq, true); err != nil || snap.Epoch != c.nearest || snap.State[0] != float64(c.nearest) {
			t.Fatalf("%s: SnapshotAt(%d, nearest) = %+v, %v; want epoch %d", label, c.seq, snap, err, c.nearest)
		}
		if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, c.after) {
			t.Fatalf("%s: after the nearest read, retained %v, want %v", label, got, c.after)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: the damaged checkpoint left the disk: %v", label, err)
		}
	}
}

// The same state checkpointed twice pins one epoch in two files. Their heads
// are then not strictly ascending, so Open validates the older checkpoints
// whole, and both stay indexed as they were before the restart.
func TestOpenIndexKeepsRepeatedEpoch(t *testing.T) {
	dir := t.TempDir()
	s := historyStore(t, dir, Options{HistoryKeep: 2}, 8)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{8}, Count: 8, Epoch: 8}); err != nil {
		t.Fatal(err)
	}
	want := s.RetainedEpochs()
	if n := len(want); n < 2 || want[n-1] != 8 || want[n-2] != 8 {
		t.Fatalf("retained %v, want epoch 8 twice at the end", want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(dir, Options{HistoryKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.RetainedEpochs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened: retained %v, want %v", got, want)
	}
	for _, e := range want {
		if snap, err := s2.SnapshotAt(e, false); err != nil || snap.Epoch != e {
			t.Fatalf("SnapshotAt(%d) = %+v, %v", e, snap, err)
		}
	}
}

// A corrupt checkpoint newer than the one Open restored stays out of the
// index, and on disk: the restore loop already refused it.
func TestOpenIndexExcludesCorruptNewerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := historyStore(t, dir, Options{HistoryKeep: 2}, 8)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, checkpointName(8))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{HistoryKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.HasCheckpoint || rec.CheckpointSeq != 7 {
		t.Fatalf("recovery %+v, want the fallback to checkpoint 7", rec)
	}
	if got, want := s2.RetainedEpochs(), []uint64{4, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	var enr *transport.EpochNotRetainedError
	if _, err := s2.SnapshotAt(8, false); !errors.As(err, &enr) {
		t.Fatalf("SnapshotAt(8) = %v, want EpochNotRetainedError", err)
	}
	if _, err := os.Stat(newest); err != nil {
		t.Fatalf("the refused checkpoint left the disk: %v", err)
	}
}

// Open reads each older retained checkpoint's head and nothing more, so what
// it allocates does not depend on how many keys or state entries those
// checkpoints carry. Only the restored checkpoint, held fixed here, is read
// whole. The allocation count is pinned for raw checkpoints; a gzipped head
// costs the flate decoder's Huffman tables, whose count follows the shape of
// the first block's code rather than the file's size. The allocated bytes
// are pinned for both: a full read of the older checkpoints would allocate
// their state, 3·7m·8 bytes more at 8m entries.
func TestOpenAllocsIndependentOfOlderCheckpoints(t *testing.T) {
	const m = 512
	restored := transport.Snapshot{State: make([]float64, m), Count: 9, Epoch: 9}
	full := make([]transport.KeyCount, transport.IdempotencyHorizon)
	for i := range full {
		full[i] = transport.KeyCount{Key: fmt.Sprintf("key-%08d", i), Reports: 1}
	}
	for _, gz := range []bool{false, true} {
		// openCost returns Open's allocations and allocated bytes per call
		// over three older checkpoints of stateLen entries and keys.
		openCost := func(stateLen int, keys []transport.KeyCount) (allocs, heap float64) {
			dir := t.TempDir()
			for seq := uint64(1); seq <= 3; seq++ {
				older := transport.Snapshot{State: make([]float64, stateLen), Count: float64(seq), Epoch: seq}
				if _, err := writeCheckpointFile(dir, seq, older, keys, gz); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := writeCheckpointFile(dir, 4, restored, nil, gz); err != nil {
				t.Fatal(err)
			}
			open := func() {
				s, _, err := Open(dir, Options{Gzip: gz})
				if err != nil {
					t.Fatal(err)
				}
				if got := s.RetainedEpochs(); len(got) != 4 {
					t.Fatalf("gzip=%v: retained %v, want 4 epochs", gz, got)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// The least of three measurements: under -race sync.Pool drops a
			// share of its Puts (fmt's, for every file name), at random.
			allocs, heap = math.Inf(1), math.Inf(1)
			for range 3 {
				allocs = min(allocs, testing.AllocsPerRun(10, open))
				const runs = 10
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					open()
				}
				runtime.ReadMemStats(&after)
				heap = min(heap, float64(after.TotalAlloc-before.TotalAlloc)/runs)
			}
			return allocs, heap
		}
		baseAllocs, baseBytes := openCost(m, nil)
		for _, c := range []struct {
			what     string
			stateLen int
			keys     []transport.KeyCount
		}{{fmt.Sprintf("%d keys", len(full)), m, full}, {fmt.Sprintf("%d state entries", 8*m), 8 * m, nil}} {
			allocs, heap := openCost(c.stateLen, c.keys)
			// Equal, give or take a dropped pooled object per file and a few
			// KiB of map and slice growth; a full read of the 8m-entry states
			// would add 3·7m·8 = 84 KiB.
			if !gz && allocs > baseAllocs+6 {
				t.Fatalf("Open allocates %v times over older checkpoints of %s, %v over %d-entry keyless ones", allocs, c.what, baseAllocs, m)
			}
			if heap > baseBytes+16<<10 {
				t.Fatalf("gzip=%v: Open allocates %.0f bytes over older checkpoints of %s, %.0f over %d-entry keyless ones", gz, heap, c.what, baseBytes, m)
			}
		}
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
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
