package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
)

// scanSpan is the span a scan of the written row finds: the first non-zero
// and one past the last, (0, 0) for an all-zero row. A zero of either sign
// is a zero.
func scanSpan(row []float64) (lo, hi int) {
	for hi = len(row); hi > 0 && row[hi-1] == 0; hi-- {
	}
	for lo = 0; lo < hi && row[lo] == 0; lo++ {
	}
	return lo, hi
}

// allRangeRows states AllRange's rows by enumerating (i, j) in row order,
// independently of the block locate QueryRow uses.
func allRangeRows(n int) [][]float64 {
	var rows [][]float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			row := make([]float64, n)
			for k := i; k <= j; k++ {
				row[k] = 1
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func explicitRows(name string, rows ...[]float64) *Explicit {
	m := linalg.New(len(rows), len(rows[0]))
	for i, r := range rows {
		m.SetRow(i, r)
	}
	return NewExplicit(name, m)
}

// TestQueryRowSpan holds every family's returned span to a scan of the row
// it wrote: exact when the row has a non-zero, lo == hi when it has none.
// The row itself must not depend on what dst held before (every entry is
// overwritten, the same bits whether dst held NaNs or zeros), and AllRange's
// rows, whose block is located in closed form, must equal its rows
// enumerated in order.
func TestQueryRowSpan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edges := explicitRows("Edges",
		[]float64{0, 0, 1, -2, 0, 0, 0},
		[]float64{negZero, 3, 0, negZero, 0.5, negZero, 0},
		[]float64{0, 0, 0, 0, 0, 0, 0},
		[]float64{negZero, negZero, negZero, negZero, negZero, negZero, negZero},
		[]float64{1, 0, 0, 0, 0, 0, -1},
		[]float64{0, 0, 0, 0, 0, 0, 5},
		[]float64{-5, 0, 0, 0, 0, 0, 0},
	)
	// 1e-300·1e-30 and 1e-200·1e-200 underflow to +0: the ends they leave
	// zero are trimmed off the part's span, and a row they empty has none.
	tiny := explicitRows("Tiny",
		[]float64{1e-300, 1, 1e-300},
		[]float64{1e-300, 1e-300, 1e-300},
		[]float64{2, 1e-300, 3},
	)
	var ws []Workload
	for _, n := range []int{1, 2, 7, 64} {
		ws = append(ws, NewHistogram(n), NewPrefix(n), NewAllRange(n),
			NewWidthRange(n, 1), NewWidthRange(n, (n+1)/2), NewWidthRange(n, n),
			NewStacked(fmt.Sprintf("Stacked%d", n), []Workload{NewHistogram(n), NewPrefix(n), NewAllRange(n), NewWidthRange(n, n)},
				[]float64{1, 0.5, 3, 2}))
	}
	for _, d := range []int{1, 3, 6} {
		ws = append(ws, NewParity(d), NewAllMarginals(d), NewKWayMarginals(d, min(d, 3)), NewKWayMarginals(d, 1))
	}
	ws = append(ws,
		edges,
		NewStacked("EdgesStacked", []Workload{edges, NewPrefix(7), edges}, []float64{2, 1, 0.25}),
		NewStacked("Underflow", []Workload{tiny, NewHistogram(3)}, []float64{1e-30, 1}),
		NewProduct(NewPrefix(3), edges),
		NewProduct(edges, NewAllRange(3)),
		NewProduct(NewAllRange(4), NewWidthRange(5, 2)),
		NewProduct(explicitRows("Small", []float64{0, 1e-200, 0}), explicitRows("SmallB", []float64{1e-200, 1, 0})),
	)
	for _, w := range ws {
		t.Run(fmt.Sprintf("%s/n=%d", w.Name(), w.Domain()), func(t *testing.T) {
			n := w.Domain()
			var ref [][]float64
			if a, ok := w.(*AllRange); ok {
				ref = allRangeRows(a.n)
			}
			got, again := make([]float64, n), make([]float64, n)
			for i := 0; i < w.Queries(); i++ {
				for j := range got {
					got[j] = math.NaN()
				}
				lo, hi := w.QueryRow(i, got)
				clear(again)
				w.QueryRow(i, again)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(again[j]) {
						t.Fatalf("row %d entry %d: %v over NaNs, %v over zeros", i, j, got[j], again[j])
					}
					if ref != nil && math.Float64bits(got[j]) != math.Float64bits(ref[i][j]) {
						t.Fatalf("row %d = %v, want %v", i, got, ref[i])
					}
				}
				wantLo, wantHi := scanSpan(got)
				switch {
				case wantLo == wantHi:
					if lo != hi || lo < 0 || lo > n {
						t.Fatalf("row %d is all zero, span [%d, %d), want an empty span", i, lo, hi)
					}
				case lo != wantLo || hi != wantHi:
					t.Fatalf("row %d %v: span [%d, %d), want [%d, %d)", i, got, lo, hi, wantLo, wantHi)
				}
			}
		})
	}
}

// A Product row is linalg.Kron's row, bit for bit, written with the factor
// rows read into dst itself: a row allocates nothing. Domain-1 factors, whose
// two factor rows share an entry of dst, negative entries beside zeros (a
// zero A entry leaves +0, not −0), and a nested product are the edges.
func TestProductQueryRowInPlace(t *testing.T) {
	signs := explicitRows("Signs", []float64{0, -1, 2}, []float64{-3, 0, 0}, []float64{0, 0, 0})
	for _, p := range []*Product{
		NewProduct(NewAllRange(16), NewAllRange(16)),
		NewProduct(NewHistogram(1), NewPrefix(5)),
		NewProduct(NewPrefix(5), NewHistogram(1)),
		NewProduct(NewHistogram(1), NewHistogram(1)),
		NewProduct(signs, signs),
		NewProduct(NewWidthRange(3, 2), NewProduct(signs, NewPrefix(2))),
	} {
		want := linalg.Kron(Materialize(p.a), Materialize(p.b))
		row := make([]float64, p.Domain())
		for i := 0; i < p.Queries(); i++ {
			for j := range row {
				row[j] = math.NaN()
			}
			p.QueryRow(i, row)
			for j, v := range want.Row(i) {
				if math.Float64bits(row[j]) != math.Float64bits(v) {
					t.Fatalf("%s row %d = %v, want %v", p.Name(), i, row, want.Row(i))
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < p.Queries(); i++ {
				p.QueryRow(i, row)
			}
		}); allocs != 0 {
			t.Fatalf("%s: %v allocations per read of all %d rows, want 0", p.Name(), allocs, p.Queries())
		}
	}
}
