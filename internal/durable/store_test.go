package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// replayLog collects what a recovery fed back.
type replayLog struct {
	snap    *transport.Snapshot
	records []Record
}

func (l *replayLog) options(digest string, fsync bool) Options {
	return Options{
		Digest: digest,
		Fsync:  fsync,
		Restore: func(s transport.Snapshot) error {
			l.snap = &s
			return nil
		},
		Replay: func(r Record) error {
			l.records = append(l.records, r)
			return nil
		},
	}
}

func batch(idx ...int) []protocol.Report {
	out := make([]protocol.Report, len(idx))
	for i, v := range idx {
		out[i] = protocol.Report{Index: v}
	}
	return out
}

func TestStoreRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, Options{Digest: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HasCheckpoint || rec.ReplayedRecords != 0 {
		t.Fatalf("fresh dir recovered something: %+v", rec)
	}
	if err := s.Append(batch(1, 2), "keyA"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(3), ""); err != nil {
		t.Fatal(err)
	}
	if s.RecordLag() != 2 {
		t.Fatalf("record lag %d, want 2", s.RecordLag())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var log replayLog
	s2, rec2, err := Open(dir, log.options("d1", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if log.snap != nil {
		t.Fatal("Restore called without a checkpoint")
	}
	if rec2.ReplayedRecords != 2 || rec2.ReplayedReports != 3 || rec2.DroppedTailBytes != 0 {
		t.Fatalf("recovery %+v", rec2)
	}
	if log.records[0].Key != "keyA" || len(log.records[0].Reports) != 2 || log.records[1].Key != "" {
		t.Fatalf("replayed records %+v", log.records)
	}
	if s2.RecordLag() != 2 {
		t.Fatalf("lag after recovery %d, want 2 (no checkpoint covers them)", s2.RecordLag())
	}
}

func TestStoreCheckpointRotateReplayTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "k1"); err != nil {
		t.Fatal(err)
	}
	// Checkpoint flow: rotate, then pin the pre-rotation state.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	snap := transport.Snapshot{State: []float64{1, 0, 0}, Count: 1, Epoch: 3, Info: transport.Info{Mechanism: "test", Domain: 3}}
	if err := s.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if s.RecordLag() != 0 || s.CheckpointSeq() != 1 || s.Seq() != 1 {
		t.Fatalf("post-checkpoint store state: lag=%d ckpt=%d seq=%d", s.RecordLag(), s.CheckpointSeq(), s.Seq())
	}
	if err := s.Append(batch(2, 3), "k2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var log replayLog
	s2, rec, err := Open(dir, log.options("", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if log.snap == nil || log.snap.Count != 1 || log.snap.Epoch != 3 || log.snap.Info.Mechanism != "test" {
		t.Fatalf("restored snapshot %+v", log.snap)
	}
	if !rec.HasCheckpoint || rec.CheckpointSeq != 1 || rec.ReplayedRecords != 1 {
		t.Fatalf("recovery %+v", rec)
	}
	if log.records[0].Key != "k2" || len(log.records[0].Reports) != 2 {
		t.Fatalf("tail record %+v", log.records[0])
	}
}

// A crash between Rotate and WriteCheckpoint leaves two segments and a stale
// (or no) checkpoint; recovery must replay both segments in order.
func TestStoreCrashBetweenRotateAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Crash here: no WriteCheckpoint. More records land in the new segment.
	if err := s.Append(batch(2), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var log replayLog
	s2, rec, err := Open(dir, log.options("", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.HasCheckpoint || rec.ReplayedRecords != 2 {
		t.Fatalf("recovery %+v", rec)
	}
	if log.records[0].Key != "a" || log.records[1].Key != "b" {
		t.Fatalf("segment order broken: %+v", log.records)
	}
	if log.records[0].Epoch != 0 || log.records[1].Epoch != 1 {
		t.Fatalf("record epochs %d,%d want 0,1", log.records[0].Epoch, log.records[1].Epoch)
	}
}

// A corrupt newest checkpoint must fall back to its retained predecessor and
// replay the larger WAL suffix — that is why two checkpoints are kept.
func TestStoreCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(count float64) {
		t.Helper()
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{count}, Count: count}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	checkpoint(1)
	if err := s.Append(batch(2), "b"); err != nil {
		t.Fatal(err)
	}
	checkpoint(2)
	if err := s.Append(batch(3), "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint in place.
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
		t.Fatalf("expected fallback to checkpoint 1, got %+v", rec)
	}
	if log.snap == nil || log.snap.Count != 1 {
		t.Fatalf("restored snapshot %+v", log.snap)
	}
	// Records b (segment 1) and c (segment 2) replay on top of checkpoint 1.
	if rec.ReplayedRecords != 2 || log.records[0].Key != "b" || log.records[1].Key != "c" {
		t.Fatalf("replayed %+v", log.records)
	}
}

func TestStoreTornTailTruncatedThenAppendable(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1, 2, 3), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(4), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its last 3 bytes.
	if err := os.Truncate(seg, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}

	var log replayLog
	s2, rec, err := Open(dir, log.options("", false))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedRecords != 1 || log.records[0].Key != "a" {
		t.Fatalf("recovery kept %+v", log.records)
	}
	if rec.DroppedTailBytes <= 0 {
		t.Fatalf("dropped %d bytes, want > 0", rec.DroppedTailBytes)
	}
	// Appends resume at the truncated boundary and survive another cycle.
	if err := s2.Append(batch(5), "c"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	var log2 replayLog
	s3, rec2, err := Open(dir, log2.options("", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec2.ReplayedRecords != 2 || log2.records[1].Key != "c" || rec2.DroppedTailBytes != 0 {
		t.Fatalf("post-repair recovery %+v (%+v)", rec2, log2.records)
	}
}

// A damaged record in the final segment followed by a complete valid record
// is corruption, not a crash tear (sequential appends tear only at the
// physical end) — recovery must refuse rather than truncate the intact
// acknowledged records away.
func TestStoreRefusesCorruptionBeforeValidRecords(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1, 2), "a"); err != nil {
		t.Fatal(err)
	}
	markEnd := s.ByteLag()
	if err := s.Append(batch(3), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record; the second stays intact.
	data[markEnd-2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "refusing to truncate") {
		t.Fatalf("corruption before an intact record accepted: %v", err)
	}
	// And nothing was mutated: the intact second record is still on disk.
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(after)) != int64(len(data)) {
		t.Fatalf("recovery mutated the damaged segment (%d → %d bytes)", len(data), len(after))
	}
}

// Damage before the final segment means acknowledged history is gone —
// recovery must refuse rather than silently undercount.
func TestStoreRefusesDamagedNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(2), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg0, int64(len(data)-1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "final segment") {
		t.Fatalf("damaged non-final segment accepted: %v", err)
	}
}

func TestStoreRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Digest: "aaaa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Digest: "bbbb"}); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch accepted: %v", err)
	}
	// An undeclared digest on either side skips the check (oracles declare none).
	s2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("undeclared digest rejected: %v", err)
	}
	s2.Close()
}

// The per-key totals must survive a checkpoint cut: a keyed request whose
// records straddle the checkpoint recovers its FULL absorbed count (the
// checkpoint's key table plus the replayed tail), not just the tail's share —
// otherwise a post-restart retry would trim too little and double-absorb.
func TestStoreKeyTotalsStraddleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1, 2, 3), "K"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{3}, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(4, 5), "K"); err != nil { // same key, post-checkpoint
		t.Fatal(err)
	}
	if err := s.Append(batch(6), "L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := map[string]int64{}
	for _, k := range s2.Keys() {
		got[k.Key] = k.Reports
	}
	if got["K"] != 5 || got["L"] != 1 {
		t.Fatalf("recovered key totals %v, want K=5 (3 checkpointed + 2 replayed) and L=1", got)
	}
}

// Checkpoint files that exist but all fail to validate mean the pruned WAL
// they covered is unrecoverable — Open must refuse, not silently restart
// from an empty base.
func TestStoreRefusesWhenNoCheckpointValidates(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{1}, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, checkpointName(1))
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "none validates") {
		t.Fatalf("sole corrupt checkpoint accepted: %v", err)
	}
}

// A gap in the segment sequence means acknowledged history was deleted —
// refuse rather than replay around it.
func TestStoreRefusesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch(2), "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(0))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing segment accepted: %v", err)
	}
}

// The WAL-lag gauges measure debt against the last DURABLE checkpoint: a
// rotation alone (the first half of a checkpoint that may still fail) must
// not zero them.
func TestStoreLagSurvivesRotateWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(batch(1, 2), "a"); err != nil {
		t.Fatal(err)
	}
	bytesBefore := s.ByteLag()
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if s.RecordLag() != 1 || s.ByteLag() != bytesBefore {
		t.Fatalf("rotation zeroed the lag: records=%d bytes=%d (want 1, %d)", s.RecordLag(), s.ByteLag(), bytesBefore)
	}
	if err := s.Append(batch(3), "b"); err != nil {
		t.Fatal(err)
	}
	if s.RecordLag() != 2 {
		t.Fatalf("record lag %d, want 2", s.RecordLag())
	}
	// Only a durable checkpoint drops the debt it covers.
	if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{2}, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if s.RecordLag() != 1 {
		t.Fatalf("record lag after checkpoint %d, want 1 (the post-rotation record)", s.RecordLag())
	}
}

// Pruning follows the retention ladder: the newest checkpoints stay at full
// resolution, older ones are coarsened geometrically, and WAL segments older
// than the predecessor of the newest retained checkpoint are deleted.
func TestStorePruneFollowsRetentionLadder(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{HistoryKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := s.Append(batch(i), ""); err != nil {
			t.Fatal(err)
		}
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(transport.Snapshot{State: []float64{float64(i)}, Count: float64(i), Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// FullRes 2, newest 8: ages 0–1 full, the next band keeps multiples of 2,
	// the one after multiples of 4.
	want := []uint64{4, 6, 7, 8}
	if len(ckpts) != len(want) {
		t.Fatalf("checkpoints on disk: %v, want %v", ckpts, want)
	}
	for i := range want {
		if ckpts[i] != want[i] {
			t.Fatalf("checkpoints on disk: %v, want %v", ckpts, want)
		}
	}
	// Recovery needs segments only from the predecessor of the newest
	// retained checkpoint forward.
	for _, g := range segs {
		if g < 7 {
			t.Fatalf("segment %d survived pruning (segments: %v)", g, segs)
		}
	}
}
