package workload

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/linalg"
)

// This file holds every family's QueryRow: the one place a workload's
// entries are written down. There is no second, materialized form to agree
// with — Materialize is QueryRow collected — and the bits a row holds are a
// contract, not a detail: WorkloadDigest hashes them, and a digest is a
// persisted strategy-cache file name and the query wire's name for a workload.
// That includes the sign of a zero (see Product.QueryRow).

// Materialize collects w's rows into the p×n matrix W. Only tests call it;
// production code reads W a row at a time or through Gram/MatVec/TMatVec.
func Materialize(w Workload) *linalg.Matrix {
	m := linalg.New(w.Queries(), w.Domain())
	for i := 0; i < m.Rows(); i++ {
		w.QueryRow(i, m.Row(i))
	}
	return m
}

// checkRow panics when query-row index i falls outside [0, p), matching the
// package's checkLen discipline for caller errors.
func checkRow(i, p int) {
	if i < 0 || i >= p {
		panic(fmt.Sprintf("workload: query row %d out of range [0,%d)", i, p))
	}
}

// trim narrows [lo, hi) past the zeros at either end of row[lo:hi]: the span
// of a row whose non-zeros are not known in closed form.
func trim(row []float64, lo, hi int) (int, int) {
	for hi > lo && row[hi-1] == 0 {
		hi--
	}
	for lo < hi && row[lo] == 0 {
		lo++
	}
	return lo, hi
}

// QueryRow writes e_i (row i of the identity).
func (h *Histogram) QueryRow(i int, dst []float64) (lo, hi int) {
	checkRow(i, h.n)
	checkLen(len(dst), h.n)
	clear(dst)
	dst[i] = 1
	return i, i + 1
}

// QueryRow writes the indicator of [0, i].
func (p *Prefix) QueryRow(i int, dst []float64) (lo, hi int) {
	checkRow(i, p.n)
	checkLen(len(dst), p.n)
	clear(dst)
	for j := 0; j <= i; j++ {
		dst[j] = 1
	}
	return 0, i + 1
}

// QueryRow writes the indicator of the r-th range under the row ordering
// (0,0),(0,1),…,(0,n−1),(1,1),…: block i holds the n−i ranges starting at i.
func (a *AllRange) QueryRow(r int, dst []float64) (lo, hi int) {
	checkRow(r, a.Queries())
	checkLen(len(dst), a.n)
	i := a.block(r)
	clear(dst)
	hi = i + r - a.rangeIndex(i, i) + 1
	for k := i; k < hi; k++ {
		dst[k] = 1
	}
	return i, hi
}

// block returns the start i of the r-th range: the largest i whose block
// begins at or before r. Block i begins at i·(2n+1−i)/2, so i is the smaller
// root of i² − (2n+1)·i + 2r = 0 rounded down; the float estimate is off by
// at most one either way, and the two loops make it exact.
func (a *AllRange) block(r int) int {
	b := float64(2*a.n + 1)
	i := int((b - math.Sqrt(b*b-8*float64(r))) / 2)
	i = min(max(i, 0), a.n-1)
	for i > 0 && a.rangeIndex(i, i) > r {
		i--
	}
	for i+1 < a.n && a.rangeIndex(i+1, i+1) <= r {
		i++
	}
	return i
}

// QueryRow writes the indicator of the r-th marginal cell: subsets in family
// order, then assignments t in compressed order within each subset.
func (m *Marginals) QueryRow(r int, dst []float64) (lo, hi int) {
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
	return trim(dst, 0, n)
}

// QueryRow writes Hadamard row s: dst[u] = (−1)^{⟨s,u⟩}.
func (p *Parity) QueryRow(s int, dst []float64) (lo, hi int) {
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
	return 0, n
}

// QueryRow writes the indicator of window [i, i+w−1].
func (r *WidthRange) QueryRow(i int, dst []float64) (lo, hi int) {
	checkRow(i, r.Queries())
	checkLen(len(dst), r.n)
	clear(dst)
	for k := i; k < i+r.w; k++ {
		dst[k] = 1
	}
	return i, i + r.w
}

// QueryRow copies row i of the wrapped matrix.
func (e *Explicit) QueryRow(i int, dst []float64) (lo, hi int) {
	checkRow(i, e.w.Rows())
	checkLen(len(dst), e.w.Cols())
	copy(dst, e.w.Row(i))
	return trim(dst, 0, len(dst))
}

// QueryRow locates the part holding row i and writes its weighted row. A
// weight that underflows an end entry to zero narrows the part's span.
func (s *Stacked) QueryRow(i int, dst []float64) (lo, hi int) {
	checkRow(i, s.Queries())
	checkLen(len(dst), s.Domain())
	pi := 0
	for ; i >= s.parts[pi].Queries(); pi++ {
		i -= s.parts[pi].Queries()
	}
	lo, hi = s.parts[pi].QueryRow(i, dst)
	linalg.ScaleVec(s.weights[pi], dst)
	return trim(dst, lo, hi)
}

// QueryRow writes the Kronecker product of the factor rows: for row
// r = i₁·p₂ + i₂, dst[u₁·n₂+u₂] = A[i₁,u₁]·B[i₂,u₂], under linalg.Kron's
// rule that a zero A entry leaves its whole block +0 (0·(−1) would be −0,
// which is a different digest). The non-zeros lie between the first
// factors' product and the last factors' product, unless one underflows.
//
// The factor rows are read into dst itself, A's into its last n₁ entries and
// B's into its first n₂, and the blocks are written from u₁ = 1 up, block 0
// last over B's row: block u₁ ends before A's entries past u₁ begin, so
// nothing is overwritten before it is read and the row allocates nothing.
// A's first entry is read out first, since with n₂ = 1 or n₁ = 1 the two
// factor rows share dst's first or last entry.
func (p *Product) QueryRow(r int, dst []float64) (lo, hi int) {
	checkRow(r, p.Queries())
	n1, n2 := p.a.Domain(), p.b.Domain()
	checkLen(len(dst), n1*n2)
	p2 := p.b.Queries()
	arow := dst[n1*n2-n1:]
	alo, ahi := p.a.QueryRow(r/p2, arow)
	a0 := arow[0]
	blo, bhi := p.b.QueryRow(r%p2, dst[:n2])
	brow := dst[:n2]
	for u1 := 1; u1 < n1; u1++ {
		av, block := arow[u1], dst[u1*n2:(u1+1)*n2]
		if av == 0 {
			clear(block)
			continue
		}
		for u2, bv := range brow {
			block[u2] = av * bv
		}
	}
	if a0 == 0 {
		clear(brow)
	} else {
		for u2, bv := range brow {
			brow[u2] = a0 * bv
		}
	}
	if alo == ahi || blo == bhi {
		return 0, 0
	}
	return trim(dst, alo*n2+blo, (ahi-1)*n2+bhi)
}
