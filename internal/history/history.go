// Package history is the bounded epoch-history subsystem layered on the
// durable layer's checkpoint machinery: it decides which checkpoints a data
// directory retains (the Ladder, in this file), indexes the retained epochs
// so any of them can be served without replay (manifest.go), and reads/writes
// the checkpoint files themselves streaming — chunk by chunk, optionally
// gzip-compressed — so a very large accumulator never needs a second
// whole-payload copy in memory (checkpoint.go).
//
// This package owns the retention policy, the two file formats and the
// writing of one file of each: WriteCheckpointFile and WriteManifest create a
// temp file in the data directory, fsync it, rename it into place and fsync
// the directory (SyncDir). The durable store owns everything else about the
// directory — which sequence a checkpoint gets, when one is cut, which files
// the ladder's verdict deletes, the WAL segments beside them. Nothing here
// touches a WAL record: checkpoints are self-contained snapshots, which is
// exactly what makes an old one servable after the segments around it are
// long pruned.
package history

import (
	"math/bits"
	"sort"
)

// DefaultFullRes is the default number of newest checkpoints retained at
// full resolution before geometric coarsening begins.
const DefaultFullRes = 4

// Ladder is the retention policy: the FullRes newest checkpoints are kept at
// full resolution, and older ones are coarsened geometrically — the next
// FullRes-wide band keeps every 2nd sequence, the band after (twice as wide)
// every 4th, and so on. Retention is a pure function of the sequence numbers,
// so it is deterministic across restarts, and the retained set only ever
// shrinks as the newest sequence advances: a sequence not divisible by 2^b is
// not divisible by 2^(b+1) either, so nothing pruned is ever needed again.
//
// The newest two sequences present are always retained regardless of the
// arithmetic — the durable layer's corrupt-checkpoint fallback depends on the
// predecessor existing.
type Ladder struct {
	// FullRes is the width of the full-resolution window; values below 2 are
	// treated as DefaultFullRes.
	FullRes int
}

// fullRes returns the effective full-resolution window.
func (l Ladder) fullRes() uint64 {
	if l.FullRes < 2 {
		return DefaultFullRes
	}
	return uint64(l.FullRes)
}

// Retains reports whether sequence s is retained when newest is the largest
// checkpoint sequence present.
func (l Ladder) Retains(newest, s uint64) bool {
	if s > newest {
		return false
	}
	f := l.fullRes()
	age := newest - s
	if age < f {
		return true
	}
	// Band b covers ages [f·2^(b-1), f·2^b) and keeps multiples of 2^b.
	b := uint(bits.Len64(age / f)) // age ≥ f ⇒ age/f ≥ 1 ⇒ b ≥ 1
	if b >= 64 {
		return s == 0
	}
	return s%(1<<b) == 0
}

// Retain filters an ascending sequence list down to the retained subset,
// ascending. The newest two entries are always kept.
func (l Ladder) Retain(seqs []uint64) []uint64 {
	if len(seqs) == 0 {
		return nil
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
		sorted := append([]uint64(nil), seqs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		seqs = sorted
	}
	newest := seqs[len(seqs)-1]
	out := make([]uint64, 0, len(seqs))
	for i, s := range seqs {
		if i >= len(seqs)-2 || l.Retains(newest, s) {
			out = append(out, s)
		}
	}
	return out
}
