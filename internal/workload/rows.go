package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/linalg"
)

// RowAccessor is the optional per-row view of a workload: QueryRow overwrites
// dst (length Domain()) with row i of W without materializing the matrix.
// Every built-in family implements it; the read path's per-query variance
// consumes workloads through it one row at a time, so nothing p-row-shaped
// is ever built. Rows are produced with exactly the arithmetic Matrix() would
// use for the same entries, so a computation folded over QueryRow is
// bit-identical to the same computation over Matrix().
type RowAccessor interface {
	QueryRow(i int, dst []float64)
}

// checkRow panics when query-row index i falls outside [0, p), matching the
// package's checkLen discipline for caller errors.
func checkRow(i, p int) {
	if i < 0 || i >= p {
		panic(fmt.Sprintf("workload: query row %d out of range [0,%d)", i, p))
	}
}

// QueryRow writes e_i (row i of the identity).
func (h *Histogram) QueryRow(i int, dst []float64) {
	checkRow(i, h.n)
	checkLen(len(dst), h.n)
	clear(dst)
	dst[i] = 1
}

// QueryRow writes the indicator of [0, i].
func (p *Prefix) QueryRow(i int, dst []float64) {
	checkRow(i, p.n)
	checkLen(len(dst), p.n)
	clear(dst)
	for j := 0; j <= i; j++ {
		dst[j] = 1
	}
}

// QueryRow writes the indicator of the r-th range under the row ordering
// (0,0),(0,1),…,(0,n−1),(1,1),…: block i holds the n−i ranges starting at i.
func (a *AllRange) QueryRow(r int, dst []float64) {
	checkRow(r, a.Queries())
	checkLen(len(dst), a.n)
	i := 0
	for r >= a.n-i {
		r -= a.n - i
		i++
	}
	clear(dst)
	for k := i; k <= i+r; k++ {
		dst[k] = 1
	}
}

// QueryRow writes the indicator of the r-th marginal cell: subsets in family
// order, then assignments t in compressed order within each subset.
func (m *Marginals) QueryRow(r int, dst []float64) {
	checkRow(r, m.Queries())
	n := m.Domain()
	checkLen(len(dst), n)
	s, t := 0, 0
	for _, sub := range m.subs {
		cells := 1 << bits.OnesCount(uint(sub))
		if r < cells {
			s, t = sub, r
			break
		}
		r -= cells
	}
	clear(dst)
	for u := 0; u < n; u++ {
		if compress(u, s, m.d) == t {
			dst[u] = 1
		}
	}
}

// QueryRow writes Hadamard row s: dst[u] = (−1)^{⟨s,u⟩}.
func (p *Parity) QueryRow(s int, dst []float64) {
	n := p.Domain()
	checkRow(s, n)
	checkLen(len(dst), n)
	for u := 0; u < n; u++ {
		if bits.OnesCount(uint(s&u))&1 == 1 {
			dst[u] = -1
		} else {
			dst[u] = 1
		}
	}
}

// QueryRow writes the indicator of window [i, i+w−1].
func (r *WidthRange) QueryRow(i int, dst []float64) {
	checkRow(i, r.Queries())
	checkLen(len(dst), r.n)
	clear(dst)
	for k := i; k < i+r.w; k++ {
		dst[k] = 1
	}
}

// QueryRow copies row i of the wrapped matrix.
func (e *Explicit) QueryRow(i int, dst []float64) {
	checkRow(i, e.w.Rows())
	checkLen(len(dst), e.w.Cols())
	copy(dst, e.w.Row(i))
}

// QueryRow locates the part holding row i and writes its weighted row.
func (s *Stacked) QueryRow(i int, dst []float64) {
	checkRow(i, s.Queries())
	checkLen(len(dst), s.Domain())
	for pi, p := range s.parts {
		if i < p.Queries() {
			rowInto(p, i, dst)
			linalg.ScaleVec(s.weights[pi], dst)
			return
		}
		i -= p.Queries()
	}
}

// QueryRow writes the Kronecker product of the factor rows: for row
// r = i₁·p₂ + i₂, dst[u₁·n₂+u₂] = A[i₁,u₁]·B[i₂,u₂] — the entry order and
// products linalg.Kron would produce for the same row.
func (p *Product) QueryRow(r int, dst []float64) {
	checkRow(r, p.Queries())
	n1, n2 := p.a.Domain(), p.b.Domain()
	checkLen(len(dst), n1*n2)
	p2 := p.b.Queries()
	arow := make([]float64, n1)
	brow := make([]float64, n2)
	rowInto(p.a, r/p2, arow)
	rowInto(p.b, r%p2, brow)
	for u1 := 0; u1 < n1; u1++ {
		av := arow[u1]
		for u2 := 0; u2 < n2; u2++ {
			dst[u1*n2+u2] = av * brow[u2]
		}
	}
}

// rowInto fills dst with row i of w: through the workload's own QueryRow when
// it has one, otherwise via the generic identity row i of W = Wᵀe_i (O(p)
// scratch — only composite parts wrapping a foreign Workload pay it).
func rowInto(w Workload, i int, dst []float64) {
	if ra, ok := w.(RowAccessor); ok {
		ra.QueryRow(i, dst)
		return
	}
	y := make([]float64, w.Queries())
	y[i] = 1
	copy(dst, w.TMatVec(y))
}
