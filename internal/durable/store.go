package durable

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// Directory layout: numbered WAL segments, the checkpoints that precede
// them, and the manifest indexing the retained epoch history.
//
//	<dir>/wal-00000003.log        records appended since checkpoint 3
//	<dir>/wal-00000002.log.gz     a closed segment, gzipped (Options.Gzip)
//	<dir>/checkpoint-00000003.ckpt state of all segments < 3
//	<dir>/history.manifest        epoch → checkpoint index (manifest.go)
//
// The active segment is the highest-numbered one and is never compressed. A
// checkpoint rotates the WAL to a fresh segment and then pins the
// pre-rotation state. Retention follows the ladder (ladder.go): the newest
// checkpoints stay at full resolution (the newest two always, so a
// checkpoint that lands corrupt on disk still leaves a recoverable older
// one) and older ones are coarsened geometrically instead of pruned
// outright, so SnapshotAt can serve any retained epoch without replay.
func segmentName(seq uint64) string    { return fmt.Sprintf("wal-%08d.log", seq) }
func gzSegmentName(seq uint64) string  { return segmentName(seq) + ".gz" }
func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", seq) }

// segmentFile resolves a segment sequence to its on-disk file: the raw
// segment wins when both forms exist (an interrupted compression leaves the
// raw file authoritative; the leftover .gz may be torn).
func segmentFile(dir string, seq uint64) (path string, gzipped bool) {
	raw := filepath.Join(dir, segmentName(seq))
	if _, err := os.Stat(raw); err == nil {
		return raw, false
	}
	return filepath.Join(dir, gzSegmentName(seq)), true
}

// Options configures Open.
type Options struct {
	// Digest is the mechanism digest stamped into every appended record and
	// verified against every replayed one (when both sides declare one):
	// a WAL written under one strategy matrix must never replay into another.
	Digest string
	// Fsync makes every group commit fsync before acknowledging. Off, records
	// are written (not buffered in-process) on acknowledgment: a process
	// crash loses nothing, a power failure can lose the OS-cached tail.
	Fsync bool
	// Restore is called once, before any Replay, with the snapshot of the
	// latest valid checkpoint — the caller seeds its accumulator from it and
	// rejects a mechanism mismatch by returning an error.
	Restore func(snap transport.Snapshot) error
	// Replay is called for every valid WAL record after the checkpoint, in
	// append order. Returning an error aborts recovery.
	Replay func(rec Record) error
	// HistoryKeep is the retention ladder's full-resolution window: that many
	// newest checkpoints are kept intact, older ones are coarsened
	// geometrically (every 2nd, then every 4th, …). Values below 2 mean 4.
	HistoryKeep int
	// Gzip compresses checkpoint payloads and closed retained WAL segments —
	// worthwhile for the unary mechanisms, whose accumulators and report
	// batches are long runs of small integers. The active segment is never
	// compressed, and either setting reads directories written by the other.
	Gzip bool
}

// Recovery reports what Open found and restored.
type Recovery struct {
	// HasCheckpoint is true when a valid checkpoint seeded the state.
	HasCheckpoint bool
	// CheckpointSeq is the sequence of that checkpoint (0 without one).
	CheckpointSeq uint64
	// ReplayedRecords and ReplayedReports count the WAL tail fed to Replay.
	ReplayedRecords int64
	ReplayedReports int64
	// DroppedTailBytes counts the torn/invalid bytes truncated from the end
	// of the final segment — the unacknowledged remains of a crash.
	DroppedTailBytes int64
}

// keyTable is the bounded, insertion-ordered per-key report-count table the
// store maintains across its whole life (filled from the checkpoint file as
// the reader walks it, advanced on every replayed or appended keyed record,
// carried into the next checkpoint) — the one in-memory form of the table.
// Oldest keys beyond the cap are evicted — the same horizon as the
// transport's LRU.
type keyTable struct {
	mu    sync.Mutex
	order []string
	count map[string]int64
}

func newKeyTable() *keyTable {
	return &keyTable{count: make(map[string]int64)}
}

func (t *keyTable) add(key string, reports int64) {
	if key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.count[key]; !ok {
		t.order = append(t.order, key)
		for len(t.order) > transport.IdempotencyHorizon {
			delete(t.count, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.count[key] += reports
}

func (t *keyTable) snapshot() []transport.KeyCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]transport.KeyCount, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, transport.KeyCount{Key: k, Reports: t.count[k]})
	}
	return out
}

// Store is the durable half of a collector: an append-only WAL plus rotation
// and checkpointing over a data directory. Append may be called from any
// number of goroutines; Rotate must exclude Append (the caller holds its
// write barrier — the same one that makes the checkpoint snapshot exact), and
// Checkpointing is single-flight by caller contract.
type Store struct {
	dir    string
	digest string
	fsync  bool

	// mu orders Append (read side) against Rotate (write side); the WAL file
	// itself serializes concurrent appends internally via group commit.
	mu  sync.RWMutex
	wal *walFile
	seq uint64

	// keys carries per-key absorbed totals across the store's life; the
	// snapshot taken at each rotation rides into the following checkpoint.
	keys *keyTable
	// pendingCut* are the totals (and key table) captured at the last Rotate
	// — what the in-flight checkpoint will cover once durable. Written under
	// mu's write side, read by WriteCheckpoint (the caller serializes the
	// Rotate → WriteCheckpoint flow).
	pendingCutRecords int64
	pendingCutBytes   int64
	pendingKeys       []transport.KeyCount

	// totalRecords/totalBytes count everything appended or replayed since
	// Open; covered* are the totals as of the last DURABLE checkpoint, so
	// lag = total − covered stays honest when a checkpoint write fails.
	totalRecords   atomic.Int64
	totalBytes     atomic.Int64
	coveredRecords atomic.Int64
	coveredBytes   atomic.Int64
	// ckptSeq is the newest durable checkpoint's sequence.
	ckptSeq atomic.Uint64

	// ladder is the checkpoint retention policy; compress selects gzipped
	// checkpoints and closed-segment compression.
	ladder   ladder
	compress bool
	// histMu guards hist, the in-memory mirror of the on-disk manifest:
	// the retained checkpoints, sequence-ascending. SnapshotAt resolves
	// epochs against it.
	histMu sync.Mutex
	hist   []manifestEntry

	// sm is the armed metrics handle set (nil until SetMetrics).
	sm atomic.Pointer[storeMetrics]
}

// Open prepares dir (creating it if needed), recovers its contents — latest
// valid checkpoint through opts.Restore, then every complete WAL record after
// it through opts.Replay, truncating a torn tail — and returns the store
// ready for appending.
func Open(dir string, opts Options) (*Store, Recovery, error) {
	var rec Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("durable: %w", err)
	}
	ckptSeqs, segSeqs, err := scanDir(dir)
	if err != nil {
		return nil, rec, err
	}

	// A raw segment alongside its .gz twin means a compression was
	// interrupted: the raw file is authoritative, the .gz may be torn. Drop
	// the .gz so nothing ever reads it.
	for _, g := range segSeqs {
		raw := filepath.Join(dir, segmentName(g))
		gz := filepath.Join(dir, gzSegmentName(g))
		if _, err := os.Stat(raw); err == nil {
			os.Remove(gz)
		}
	}

	// Latest checkpoint that actually loads wins; a corrupt one falls back
	// to its predecessor (retained exactly for this). If checkpoints exist
	// but NONE validates, recovery must refuse: the segments a checkpoint
	// covered have been pruned, so starting from an empty base would serve a
	// consistent-looking undercount of the whole checkpointed population.
	// The reader streams a file's keys before its CRC verdict, so each
	// attempt fills a table of its own and only a validated file's is adopted
	// — a refused checkpoint leaves none of its keys behind.
	keys := newKeyTable()
	base := uint64(0)
	for i := len(ckptSeqs) - 1; i >= 0; i-- {
		attempt := newKeyTable()
		snap, _, err := readCheckpointFile(filepath.Join(dir, checkpointName(ckptSeqs[i])), ckptSeqs[i],
			func(key []byte, reports int64) { attempt.add(string(key), reports) })
		if err != nil {
			continue
		}
		if opts.Restore != nil {
			if err := opts.Restore(snap); err != nil {
				return nil, rec, fmt.Errorf("durable: restore checkpoint %d: %w", ckptSeqs[i], err)
			}
		}
		keys = attempt
		rec.HasCheckpoint = true
		rec.CheckpointSeq = ckptSeqs[i]
		base = ckptSeqs[i]
		break
	}
	if !rec.HasCheckpoint && len(ckptSeqs) > 0 {
		return nil, rec, fmt.Errorf("durable: %d checkpoint file(s) present but none validates — the WAL they covered has been pruned, so recovery would silently lose it; restore a checkpoint from backup or remove the data directory to accept the loss", len(ckptSeqs))
	}

	// Replay every segment the checkpoint does not cover, oldest first. The
	// run must be contiguous and start at the checkpoint's segment — a gap
	// means acknowledged history was deleted, which recovery refuses to
	// paper over. Only the final segment may end torn (a crash mid-append);
	// a defect anywhere else is corruption.
	var replay []uint64
	for _, s := range segSeqs {
		if s >= base {
			replay = append(replay, s)
		}
	}
	for i, seq := range replay {
		if want := base + uint64(i); seq != want {
			return nil, rec, fmt.Errorf("durable: WAL segment %s is missing (found %s) — acknowledged history is gone; refusing to recover an undercount", segmentName(want), segmentName(seq))
		}
	}
	var totalBytes int64
	for i, seq := range replay {
		final := i == len(replay)-1
		path, gzipped := segmentFile(dir, seq)
		kept, dropped, err := replaySegment(path, gzipped, seq, final, opts, &rec, keys)
		if err != nil {
			return nil, rec, err
		}
		totalBytes += kept
		rec.DroppedTailBytes += dropped
	}

	// The active segment is the newest one (created now if none exists yet).
	active := base
	if len(replay) > 0 {
		active = replay[len(replay)-1]
	}
	wal, err := openWALFile(filepath.Join(dir, segmentName(active)), opts.Fsync)
	if err != nil {
		return nil, rec, fmt.Errorf("durable: open WAL segment: %w", err)
	}
	s := &Store{
		dir: dir, digest: opts.Digest, fsync: opts.Fsync,
		wal: wal, seq: active, keys: keys,
		ladder:   ladder{fullRes: opts.HistoryKeep},
		compress: opts.Gzip,
	}
	s.totalRecords.Store(rec.ReplayedRecords)
	s.totalBytes.Store(totalBytes)
	s.ckptSeq.Store(rec.CheckpointSeq)
	s.hist = reconcileManifest(dir, ckptSeqs, rec.CheckpointSeq, rec.HasCheckpoint)
	return s, rec, nil
}

// reconcileManifest builds the in-memory epoch index at Open: the manifest is
// consulted first (it is an index, not ground truth), every on-disk
// checkpoint it does not cover is read to rebuild its entry, entries without
// files are dropped, and checkpoints newer than the one that validated during
// restore are excluded — the restore loop already proved them corrupt. When
// the result differs from what was on disk, the manifest is rewritten
// best-effort.
func reconcileManifest(dir string, ckptSeqs []uint64, base uint64, hasCkpt bool) []manifestEntry {
	if !hasCkpt {
		// No valid checkpoint ⇒ no retained history; clear a stale manifest.
		if m, err := loadManifest(dir); err == nil && m != nil {
			writeManifest(dir, nil)
		}
		return nil
	}
	manifest, err := loadManifest(dir) // damaged ⇒ rebuild from files
	bySeq := make(map[uint64]manifestEntry, len(manifest))
	for _, e := range manifest {
		bySeq[e.Seq] = e
	}
	dirty := err != nil || len(manifest) != len(ckptSeqs)
	var hist []manifestEntry
	for _, c := range ckptSeqs {
		if c > base {
			dirty = true // proved corrupt during restore
			continue
		}
		if e, ok := bySeq[c]; ok {
			hist = append(hist, e)
			continue
		}
		snap, compressed, err := readCheckpointFile(filepath.Join(dir, checkpointName(c)), c, nil)
		if err != nil {
			dirty = true // unservable; leave the file for the operator
			continue
		}
		hist = append(hist, manifestEntry{Seq: c, Epoch: snap.Epoch, Count: snap.Count, Compressed: compressed})
		dirty = true
	}
	if dirty {
		writeManifest(dir, hist) // best-effort; files stay ground truth
	}
	return hist
}

// scanDir lists checkpoint and segment sequences, ascending, ignoring
// anything else (temp files from interrupted checkpoint writes included). A
// segment present both raw and gzipped is listed once.
func scanDir(dir string) (ckpts, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	seen := make(map[uint64]bool)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, seq)
		} else if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			if !seen[seq] {
				seen[seq] = true
				segs = append(segs, seq)
			}
		} else if seq, ok := parseSeq(e.Name(), "wal-", ".log.gz"); ok {
			if !seen[seq] {
				seen[seq] = true
				segs = append(segs, seq)
			}
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) < 8 { // zero-padded to width 8, wider once seq outgrows it
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// replaySegment feeds every complete record of one segment to opts.Replay
// and returns (kept, dropped) byte counts of logical (decompressed) WAL
// bytes. In a raw final segment a torn or invalid tail is truncated away and
// counted as dropped; elsewhere it is an error. A gzipped segment was
// compressed whole from an already-closed segment, so any damage in one is
// corruption, never a crash tear — it is refused, not truncated.
func replaySegment(path string, gzipped bool, seq uint64, final bool, opts Options, rec *Recovery, keys *keyTable) (int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	var src io.Reader = bufio.NewReaderSize(f, 1<<16)
	if gzipped {
		gz, err := gzip.NewReader(src)
		if err != nil {
			return 0, 0, fmt.Errorf("durable: WAL segment %s: gzip: %w", filepath.Base(path), err)
		}
		defer gz.Close()
		src = gz
	}
	cr := &countingReader{r: src}
	var lastGood int64
	for {
		r, err := DecodeRecord(cr)
		if err == io.EOF {
			return lastGood, 0, nil // clean end at a record boundary
		}
		if err != nil {
			dropped, err := truncateTornTail(f, final && !gzipped, lastGood, err, func(b []byte) bool {
				r, err := DecodeRecord(bytes.NewReader(b))
				return err == nil && r.Epoch == seq
			})
			if err != nil {
				return 0, 0, err
			}
			return lastGood, dropped, nil
		}
		if r.Epoch != seq {
			return 0, 0, fmt.Errorf("durable: WAL segment %s record at offset %d carries epoch %d, segment is %d", filepath.Base(path), lastGood, r.Epoch, seq)
		}
		if r.Digest != "" && opts.Digest != "" && r.Digest != opts.Digest {
			return 0, 0, fmt.Errorf("durable: WAL record was written under mechanism digest %s, collector aggregates under %s", r.Digest, opts.Digest)
		}
		if opts.Replay != nil {
			if err := opts.Replay(r); err != nil {
				return 0, 0, fmt.Errorf("durable: replay WAL record: %w", err)
			}
		}
		keys.add(r.Key, int64(len(r.Reports)))
		rec.ReplayedRecords++
		rec.ReplayedReports += int64(len(r.Reports))
		lastGood = cr.n
	}
}

// recBufPool recycles record-encoding buffers: the WAL copies a record into
// its group-commit buffer synchronously, so the encode buffer is reusable the
// moment append returns — Append then costs no steady-state allocation.
var recBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Append durably logs one batch under the given idempotency key (may be
// empty) before the caller absorbs it. Safe for concurrent use; concurrent
// appends group-commit into shared writes.
func (s *Store) Append(reports []protocol.Report, key string) error {
	if m := s.sm.Load(); m != nil {
		start := time.Now()
		err := s.append(reports, key)
		m.appendDur.ObserveDuration(time.Since(start))
		return err
	}
	return s.append(reports, key)
}

func (s *Store) append(reports []protocol.Report, key string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bp := recBufPool.Get().(*[]byte)
	data, err := AppendRecord((*bp)[:0], Record{Epoch: s.seq, Key: key, Digest: s.digest, Reports: reports})
	if err != nil {
		recBufPool.Put(bp)
		return err
	}
	n := int64(len(data))
	err = s.wal.append(data)
	*bp = data[:0]
	recBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("durable: append WAL record: %w", err)
	}
	s.keys.add(key, int64(len(reports)))
	s.totalRecords.Add(1)
	s.totalBytes.Add(n)
	return nil
}

// Rotate closes the active segment and starts the next one. The caller must
// exclude Append for the duration and snapshot its accumulator in the same
// exclusion window — that pairing is what makes the subsequent WriteCheckpoint
// exact. Cheap: one file create and one close.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.seq + 1
	nf, err := openWALFile(filepath.Join(s.dir, segmentName(next)), s.fsync)
	if err != nil {
		return fmt.Errorf("durable: rotate WAL: %w", err)
	}
	old := s.wal
	s.wal = nf
	s.seq = next
	nf.metrics.Store(s.sm.Load()) // the new segment keeps feeding flush metrics
	// Capture what the coming checkpoint will cover. The lag gauges keep
	// counting against the last DURABLE checkpoint — they drop only when
	// WriteCheckpoint succeeds, so a failing checkpoint leaves the replay
	// debt visible instead of zeroing it.
	s.pendingCutRecords = s.totalRecords.Load()
	s.pendingCutBytes = s.totalBytes.Load()
	s.pendingKeys = s.keys.snapshot()
	if err := old.close(); err != nil {
		return fmt.Errorf("durable: close rotated WAL segment: %w", err)
	}
	return nil
}

// WriteCheckpoint pins snap as the state of every segment before the active
// one (the caller took snap in the exclusion window of the latest Rotate),
// then applies the retention ladder: non-retained checkpoints and the WAL
// segments no retained checkpoint needs are deleted, closed retained raw
// segments are gzipped when compression is on, and the manifest is rewritten
// to index what remains. The checkpoint is fsynced before anything is pruned,
// in every fsync mode — losing a checkpoint is harmless only while the WAL it
// replaces still exists.
func (s *Store) WriteCheckpoint(snap transport.Snapshot) error {
	if m := s.sm.Load(); m != nil {
		start := time.Now()
		err := s.writeCheckpoint(snap)
		m.ckptDur.ObserveDuration(time.Since(start))
		return err
	}
	return s.writeCheckpoint(snap)
}

func (s *Store) writeCheckpoint(snap transport.Snapshot) error {
	s.mu.RLock()
	seq := s.seq
	keys := s.pendingKeys
	cutRecords, cutBytes := s.pendingCutRecords, s.pendingCutBytes
	s.mu.RUnlock()
	if _, err := writeCheckpointFile(s.dir, seq, snap, keys, s.compress); err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	s.ckptSeq.Store(seq)
	s.coveredRecords.Store(cutRecords)
	s.coveredBytes.Store(cutBytes)
	return s.updateHistory(seq, snap)
}

// updateHistory admits the just-written checkpoint into the epoch index,
// prunes by the retention ladder, compresses what the ladder retains, and
// rewrites the manifest. File removal and segment compression are
// best-effort (a leftover is retried at the next checkpoint); a manifest
// write failure is returned — without it a restart would reindex, which is
// correct but defeats the point of the index.
func (s *Store) updateHistory(seq uint64, snap transport.Snapshot) error {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	hist := s.hist
	if n := len(hist); n > 0 && hist[n-1].Seq == seq {
		hist = hist[:n-1] // re-checkpoint of the same segment (no new epoch)
	}
	hist = append(hist, manifestEntry{Seq: seq, Epoch: snap.Epoch, Count: snap.Count, Compressed: s.compress})

	seqs := make([]uint64, len(hist))
	for i, e := range hist {
		seqs[i] = e.Seq
	}
	retained := s.ladder.retain(seqs)
	keep := make(map[uint64]bool, len(retained))
	for _, r := range retained {
		keep[r] = true
	}
	kept := hist[:0]
	for _, e := range hist {
		if keep[e.Seq] {
			kept = append(kept, e)
		} else {
			os.Remove(filepath.Join(s.dir, checkpointName(e.Seq)))
		}
	}
	s.hist = kept

	// Segments: recovery needs the run from the PREDECESSOR retained
	// checkpoint forward (the newest checkpoint may land corrupt on disk;
	// its predecessor plus the segments after it still recover everything).
	// Older checkpoints are self-contained — their segments can go.
	keepFrom := seq
	if len(retained) >= 2 {
		keepFrom = retained[len(retained)-2]
	}
	if _, segs, err := scanDir(s.dir); err == nil {
		for _, g := range segs {
			if g < keepFrom {
				os.Remove(filepath.Join(s.dir, segmentName(g)))
				os.Remove(filepath.Join(s.dir, gzSegmentName(g)))
			} else if s.compress && g < seq {
				// A closed segment recovery may still replay: keep it, smaller.
				s.compressSegment(g)
			}
		}
	}
	if err := writeManifest(s.dir, s.hist); err != nil {
		return fmt.Errorf("durable: write history manifest: %w", err)
	}
	return nil
}

// compressSegment gzips one closed raw segment into its .gz name (an atomic
// replace), then removes the raw original. A crash at any point leaves a
// readable segment — the raw file is authoritative until it is removed, and
// Open deletes a .gz twin whenever the raw survives. Best-effort: on any
// error the raw segment simply stays.
func (s *Store) compressSegment(seq uint64) {
	raw := filepath.Join(s.dir, segmentName(seq))
	src, err := os.Open(raw)
	if err != nil {
		return // already compressed (or gone)
	}
	defer src.Close()
	err = ReplaceFile(filepath.Join(s.dir, gzSegmentName(seq)), func(f *os.File) error {
		gz := gzip.NewWriter(f)
		if _, err := io.Copy(gz, bufio.NewReaderSize(src, 1<<16)); err != nil {
			return err
		}
		return gz.Close()
	})
	if err == nil {
		os.Remove(raw)
	}
}

// SnapshotAt serves the checkpointed snapshot for one retained epoch without
// any replay: one streamed read of one file, which validates the key table
// but never builds it. With nearest false the epoch must match a retained
// checkpoint exactly; with nearest true the newest retained epoch ≤ the
// requested one is served. A miss returns *transport.EpochNotRetainedError
// describing the retained range, so callers (and the HTTP layer) can
// distinguish "coarsened away" from failure.
func (s *Store) SnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	for {
		seq, err := s.resolveEpoch(epoch, nearest)
		if err != nil {
			return transport.Snapshot{}, err
		}
		snap, _, err := readCheckpointFile(filepath.Join(s.dir, checkpointName(seq)), seq, nil)
		if err == nil {
			return snap, nil
		}
		// The index lock is not held across the read, so a checkpoint cut in
		// between may have coarsened seq away and removed its file. That is
		// the same definitive miss one instant early: resolve again against
		// the index as it is now. A file missing while the index still lists
		// it is damage and stays loud.
		if errors.Is(err, os.ErrNotExist) && !s.retains(seq) {
			continue
		}
		return transport.Snapshot{}, fmt.Errorf("durable: read retained checkpoint %d: %w", seq, err)
	}
}

// resolveEpoch maps an epoch to the sequence of the retained checkpoint that
// serves it, or to the typed miss.
func (s *Store) resolveEpoch(epoch uint64, nearest bool) (uint64, error) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	var nearestBelow uint64
	for i := len(s.hist) - 1; i >= 0; i-- {
		e := s.hist[i]
		if e.Epoch > epoch {
			continue
		}
		if nearest || e.Epoch == epoch {
			return e.Seq, nil
		}
		nearestBelow = e.Epoch
		break
	}
	miss := &transport.EpochNotRetainedError{Requested: epoch, Nearest: nearestBelow}
	if len(s.hist) > 0 {
		miss.Oldest, miss.Newest = s.hist[0].Epoch, s.hist[len(s.hist)-1].Epoch
	}
	return 0, miss
}

// retains reports whether the epoch index still lists checkpoint seq.
func (s *Store) retains(seq uint64) bool {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return slices.ContainsFunc(s.hist, func(e manifestEntry) bool { return e.Seq == seq })
}

// RetainedEpochs lists the epochs SnapshotAt can serve, ascending.
func (s *Store) RetainedEpochs() []uint64 {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	out := make([]uint64, len(s.hist))
	for i, e := range s.hist {
		out[i] = e.Epoch
	}
	return out
}

// Keys returns the idempotency-key totals the log proves absorbed, oldest
// first: the recovered checkpoint's table, the replayed tail, and every keyed
// append since. A keyed request whose records straddle a checkpoint therefore
// reports its full absorbed count.
func (s *Store) Keys() []transport.KeyCount { return s.keys.snapshot() }

// Seq returns the active segment sequence.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// CheckpointSeq returns the newest durable checkpoint's sequence.
func (s *Store) CheckpointSeq() uint64 { return s.ckptSeq.Load() }

// RecordLag returns the number of records no durable checkpoint covers yet —
// what a restart right now would replay. It keeps growing while checkpoint
// writes fail, which is exactly when an operator needs to see it.
func (s *Store) RecordLag() int64 { return s.totalRecords.Load() - s.coveredRecords.Load() }

// ByteLag returns the WAL bytes no durable checkpoint covers yet.
func (s *Store) ByteLag() int64 { return s.totalBytes.Load() - s.coveredBytes.Load() }

// Sync forces staged records to disk regardless of the fsync mode.
func (s *Store) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal.sync()
}

// Close flushes and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.close()
}
