package durable

import (
	"math/bits"
	"sort"
)

// defaultFullRes is the default number of newest checkpoints retained at
// full resolution before geometric coarsening begins.
const defaultFullRes = 4

// ladder is the retention policy: the fullRes newest checkpoints are kept at
// full resolution, and older ones are coarsened geometrically — the next
// fullRes-wide band keeps every 2nd sequence, the band after (twice as wide)
// every 4th, and so on. Retention is a pure function of the sequence numbers,
// so it is deterministic across restarts, and the retained set only ever
// shrinks as the newest sequence advances: a sequence not divisible by 2^b is
// not divisible by 2^(b+1) either, so nothing pruned is ever needed again.
//
// The newest two sequences present are always retained regardless of the
// arithmetic — the corrupt-checkpoint fallback depends on the predecessor
// existing.
type ladder struct {
	// fullRes is the width of the full-resolution window; values below 2 are
	// treated as defaultFullRes.
	fullRes int
}

// window returns the effective full-resolution window.
func (l ladder) window() uint64 {
	if l.fullRes < 2 {
		return defaultFullRes
	}
	return uint64(l.fullRes)
}

// retains reports whether sequence s is retained when newest is the largest
// checkpoint sequence present.
func (l ladder) retains(newest, s uint64) bool {
	if s > newest {
		return false
	}
	f := l.window()
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

// retain filters an ascending sequence list down to the retained subset,
// ascending. The newest two entries are always kept.
func (l ladder) retain(seqs []uint64) []uint64 {
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
		if i >= len(seqs)-2 || l.retains(newest, s) {
			out = append(out, s)
		}
	}
	return out
}
