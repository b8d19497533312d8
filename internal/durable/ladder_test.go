package durable

import (
	"reflect"
	"testing"
)

// The full-resolution window is always retained, and the bands behind it keep
// exactly the geometrically-spaced sequences the doc comment promises.
func TestLadderFullResWindow(t *testing.T) {
	l := ladder{fullRes: 4}
	const newest = 100
	for s := uint64(newest - 3); s <= newest; s++ {
		if !l.retains(newest, s) {
			t.Fatalf("sequence %d inside the full-res window must be retained", s)
		}
	}
	// Band 1 covers ages [4, 8) — sequences 93..96 — and keeps multiples of 2.
	for s := uint64(93); s <= 96; s++ {
		if got, want := l.retains(newest, s), s%2 == 0; got != want {
			t.Fatalf("band-1 sequence %d: retained=%v, want %v", s, got, want)
		}
	}
	// Band 2 covers ages [8, 16) — sequences 85..92 — and keeps multiples of 4.
	for s := uint64(85); s <= 92; s++ {
		if got, want := l.retains(newest, s), s%4 == 0; got != want {
			t.Fatalf("band-2 sequence %d: retained=%v, want %v", s, got, want)
		}
	}
	if l.retains(newest, newest+1) {
		t.Fatal("a sequence newer than newest cannot be retained")
	}
}

// Pruned stays pruned: as newest advances, a sequence's retention never flips
// from false back to true. This is the property that makes incremental
// pruning (filter after every new checkpoint) equal batch pruning, so a
// restart that re-derives the retained set from the directory agrees with the
// process that built it.
func TestLadderMonotone(t *testing.T) {
	for _, fullRes := range []int{0, 2, 3, 4, 8} {
		l := ladder{fullRes: fullRes}
		const horizon = 300
		for s := uint64(0); s <= horizon; s++ {
			dropped := false
			for newest := s; newest <= horizon; newest++ {
				r := l.retains(newest, s)
				if dropped && r {
					t.Fatalf("FullRes=%d: sequence %d pruned then retained again at newest=%d", fullRes, s, newest)
				}
				if !r {
					dropped = true
				}
			}
		}
	}
}

// The newest two sequences survive Retain regardless of the arithmetic — the
// durable layer's corrupt-checkpoint fallback needs the predecessor.
func TestRetainKeepsNewestTwo(t *testing.T) {
	l := ladder{fullRes: 2}
	got := l.retain([]uint64{1, 3, 5, 7, 9, 11})
	if n := len(got); n < 2 || got[n-1] != 11 || got[n-2] != 9 {
		t.Fatalf("newest two must survive, got %v", got)
	}
	// Odd sequences far behind an odd newest are never multiples of 2^b; only
	// the forced newest-two rule keeps any of the tail.
	for _, s := range got[:len(got)-2] {
		if !l.retains(11, s) {
			t.Fatalf("sequence %d in the output but not retained by the ladder", s)
		}
	}
}

// Incremental pruning — filtering the retained set after every new
// checkpoint, exactly as the store does — lands on the same set as one batch
// Retain over the full sequence range.
func TestRetainIncrementalEqualsBatch(t *testing.T) {
	for _, fullRes := range []int{2, 4, 5} {
		l := ladder{fullRes: fullRes}
		const horizon = 120
		var incremental []uint64
		var all []uint64
		for s := uint64(1); s <= horizon; s++ {
			incremental = l.retain(append(incremental, s))
			all = append(all, s)
		}
		batch := l.retain(all)
		if !reflect.DeepEqual(incremental, batch) {
			t.Fatalf("FullRes=%d: incremental %v != batch %v", fullRes, incremental, batch)
		}
	}
}
