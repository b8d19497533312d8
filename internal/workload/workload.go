// Package workload defines linear-query workloads (Definition 2.3 of the
// paper): a workload is a p×n matrix W whose rows are linear counting queries
// over a data vector of length n.
//
// Every workload used in the paper's evaluation (Histogram, Prefix, AllRange,
// AllMarginals, 3-Way Marginals, Parity) is provided. Workloads expose their
// Gram matrix WᵀW through a closed form whenever one exists, because every
// variance/objective computation in the factorization mechanism depends on W
// only through WᵀW (Theorem 3.11 and the variance identities in
// internal/strategy). This lets us evaluate huge workloads — AllRange on
// n=1024 has 524 800 rows — without ever materializing W.
//
// Workloads also implement fast implicit MatVec (y = Wx) and TMatVec
// (z = Wᵀy) operators, used by the WNNLS post-processing step and by the
// end-to-end simulator.
package workload

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hadamard"
	"repro/internal/linalg"
)

// Workload is a p×n matrix of linear counting queries, represented implicitly.
type Workload interface {
	// Name identifies the workload family, e.g. "Prefix".
	Name() string
	// Domain returns n, the number of user types (columns of W).
	Domain() int
	// Queries returns p, the number of workload queries (rows of W).
	Queries() int
	// Gram returns WᵀW as an n×n matrix. Implementations may cache; callers
	// must not mutate the result.
	Gram() *linalg.Matrix
	// FrobNorm2 returns ‖W‖²_F = tr(WᵀW).
	FrobNorm2() float64
	// MatVec returns W·x (the exact workload answers on data vector x).
	MatVec(x []float64) []float64
	// TMatVec returns Wᵀ·y.
	TMatVec(y []float64) []float64
	// QueryRow overwrites dst (length Domain()) with row i of W. It is the
	// one statement of the workload's entries; everything that needs them
	// (the digest, per-query variance, Stacked, Product) reads a row at a time.
	// It returns the exact span [lo, hi) of the row's non-zeros: dst[lo] and
	// dst[hi−1] are non-zero and everything outside is zero, with lo == hi
	// for an all-zero row.
	QueryRow(i int, dst []float64) (lo, hi int)
}

// gramCache provides lazy caching of the Gram matrix for implementations.
type gramCache struct {
	gram *linalg.Matrix
}

func (g *gramCache) cached(build func() *linalg.Matrix) *linalg.Matrix {
	if g.gram == nil {
		g.gram = build()
	}
	return g.gram
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// Histogram is the identity workload I_n: one point query per user type.
type Histogram struct {
	n int
	gramCache
}

// NewHistogram returns the Histogram workload on a domain of size n.
func NewHistogram(n int) *Histogram {
	mustPositive(n)
	return &Histogram{n: n}
}

func (h *Histogram) Name() string { return "Histogram" }

// Domain returns the domain size n.
func (h *Histogram) Domain() int { return h.n }

// Queries returns the number of queries, n.
func (h *Histogram) Queries() int { return h.n }

// Gram returns the identity matrix.
func (h *Histogram) Gram() *linalg.Matrix {
	return h.cached(func() *linalg.Matrix { return linalg.Identity(h.n) })
}

// FrobNorm2 returns n.
func (h *Histogram) FrobNorm2() float64 { return float64(h.n) }

// MatVec returns a copy of x.
func (h *Histogram) MatVec(x []float64) []float64 {
	checkLen(len(x), h.n)
	return linalg.CloneVec(x)
}

// TMatVec returns a copy of y.
func (h *Histogram) TMatVec(y []float64) []float64 {
	checkLen(len(y), h.n)
	return linalg.CloneVec(y)
}

// ---------------------------------------------------------------------------
// Prefix
// ---------------------------------------------------------------------------

// Prefix is the workload of all prefix-range queries [0, k], k = 0..n-1
// (Example 2.4): W is the lower-triangular all-ones matrix. Answering Prefix
// yields the unnormalized empirical CDF.
type Prefix struct {
	n int
	gramCache
}

// NewPrefix returns the Prefix workload on a domain of size n.
func NewPrefix(n int) *Prefix {
	mustPositive(n)
	return &Prefix{n: n}
}

func (p *Prefix) Name() string { return "Prefix" }

// Domain returns the domain size n.
func (p *Prefix) Domain() int { return p.n }

// Queries returns the number of queries, n.
func (p *Prefix) Queries() int { return p.n }

// Gram returns WᵀW with the closed form (WᵀW)_{ij} = n − max(i, j): entry
// (i, j) counts prefixes [0,k] that contain both i and j, i.e. k ≥ max(i,j).
func (p *Prefix) Gram() *linalg.Matrix {
	return p.cached(func() *linalg.Matrix {
		g := linalg.New(p.n, p.n)
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				g.Set(i, j, float64(p.n-max(i, j)))
			}
		}
		return g
	})
}

// FrobNorm2 returns Σ_{k=1..n} k = n(n+1)/2.
func (p *Prefix) FrobNorm2() float64 { return float64(p.n) * float64(p.n+1) / 2 }

// MatVec returns the prefix sums of x in O(n).
func (p *Prefix) MatVec(x []float64) []float64 {
	checkLen(len(x), p.n)
	out := make([]float64, p.n)
	run := 0.0
	for i, v := range x {
		run += v
		out[i] = run
	}
	return out
}

// TMatVec returns Wᵀy: (Wᵀy)_u = Σ_{k ≥ u} y_k, a suffix sum in O(n).
func (p *Prefix) TMatVec(y []float64) []float64 {
	checkLen(len(y), p.n)
	out := make([]float64, p.n)
	run := 0.0
	for i := p.n - 1; i >= 0; i-- {
		run += y[i]
		out[i] = run
	}
	return out
}

// ---------------------------------------------------------------------------
// AllRange
// ---------------------------------------------------------------------------

// AllRange is the workload of all contiguous range queries [i, j] with
// 0 ≤ i ≤ j < n; it has n(n+1)/2 queries. Query rows are ordered
// (0,0),(0,1),...,(0,n-1),(1,1),...,(n-1,n-1).
type AllRange struct {
	n int
	gramCache
}

// NewAllRange returns the AllRange workload on a domain of size n.
func NewAllRange(n int) *AllRange {
	mustPositive(n)
	return &AllRange{n: n}
}

func (a *AllRange) Name() string { return "AllRange" }

// Domain returns the domain size n.
func (a *AllRange) Domain() int { return a.n }

// Queries returns n(n+1)/2.
func (a *AllRange) Queries() int { return a.n * (a.n + 1) / 2 }

// Gram returns WᵀW with the closed form (WᵀW)_{uv} = (min(u,v)+1)(n−max(u,v)):
// a range [i, j] contains both u and v iff i ≤ min(u,v) and j ≥ max(u,v).
func (a *AllRange) Gram() *linalg.Matrix {
	return a.cached(func() *linalg.Matrix {
		g := linalg.New(a.n, a.n)
		for u := 0; u < a.n; u++ {
			for v := 0; v < a.n; v++ {
				g.Set(u, v, float64((min(u, v)+1)*(a.n-max(u, v))))
			}
		}
		return g
	})
}

// FrobNorm2 returns Σ_u (u+1)(n−u), the total number of (range, point)
// incidences.
func (a *AllRange) FrobNorm2() float64 {
	s := 0.0
	for u := 0; u < a.n; u++ {
		s += float64((u + 1) * (a.n - u))
	}
	return s
}

// rangeIndex returns the row index of range [i, j] under the row ordering.
func (a *AllRange) rangeIndex(i, j int) int {
	// Ranges starting at i occupy a block of (n - i) rows.
	// Offset of block i: Σ_{t<i} (n−t) = i*n − i(i−1)/2.
	return i*a.n - i*(i-1)/2 + (j - i)
}

// MatVec computes all range sums from the prefix sums of x in O(p).
func (a *AllRange) MatVec(x []float64) []float64 {
	checkLen(len(x), a.n)
	prefix := make([]float64, a.n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	out := make([]float64, a.Queries())
	at := 0
	for i := 0; i < a.n; i++ {
		for j := i; j < a.n; j++ {
			out[at] = prefix[j+1] - prefix[i]
			at++
		}
	}
	return out
}

// TMatVec computes (Wᵀy)_u = Σ_{[i,j] ∋ u} y_{ij} in O(p) using running sums.
func (a *AllRange) TMatVec(y []float64) []float64 {
	checkLen(len(y), a.Queries())
	// (Wᵀy)_u = Σ_{i ≤ u} Σ_{j ≥ u} y[i,j]. Let S(i, u) = Σ_{j ≥ u} y[i, j]
	// (a suffix sum within block i). Then (Wᵀy)_u = Σ_{i ≤ u} S(i, u).
	// We sweep u from n−1 down to 0 maintaining S(i, u) incrementally.
	out := make([]float64, a.n)
	s := make([]float64, a.n) // s[i] = S(i, u+1), updated to S(i, u)
	for u := a.n - 1; u >= 0; u-- {
		tot := 0.0
		for i := 0; i <= u; i++ {
			s[i] += y[a.rangeIndex(i, u)]
			tot += s[i]
		}
		out[u] = tot
	}
	return out
}

// ---------------------------------------------------------------------------
// Marginals over a binary domain
// ---------------------------------------------------------------------------

// Marginals is the workload of marginal queries over the binary domain
// {0,1}^d (n = 2^d). For every attribute subset S in the chosen family and
// every assignment t ∈ {0,1}^|S|, it contains the query counting users u with
// u_S = t.
//
// Two families are provided: All (every S ⊆ [d]; p = 3^d queries, the paper's
// "All Marginals") and exactly-k (every S with |S| = k; the paper's "3-Way
// Marginals" with k = 3).
type Marginals struct {
	d    int
	k    int // -1 means all subsets; otherwise exactly-k subsets
	name string
	subs []int // subset bitmasks in family order, built at construction so
	// concurrent per-row reads (QueryRow) share it without a lazy-init race
	gramCache
}

// NewAllMarginals returns the All Marginals workload over {0,1}^d.
func NewAllMarginals(d int) *Marginals {
	mustPositive(d)
	m := &Marginals{d: d, k: -1, name: "AllMarginals"}
	m.subs = m.subsets()
	return m
}

// NewKWayMarginals returns the workload of all k-way marginals (subsets of
// exactly k attributes) over {0,1}^d.
func NewKWayMarginals(d, k int) *Marginals {
	mustPositive(d)
	if k < 0 || k > d {
		panic(fmt.Sprintf("workload: k = %d out of range for d = %d", k, d))
	}
	m := &Marginals{d: d, k: k, name: fmt.Sprintf("%d-WayMarginals", k)}
	m.subs = m.subsets()
	return m
}

func (m *Marginals) Name() string { return m.name }

// Domain returns 2^d.
func (m *Marginals) Domain() int { return 1 << m.d }

// Queries returns 3^d for All Marginals and C(d,k)·2^k for k-way marginals.
func (m *Marginals) Queries() int {
	if m.k < 0 {
		p := 1
		for i := 0; i < m.d; i++ {
			p *= 3
		}
		return p
	}
	return binom(m.d, m.k) * (1 << m.k)
}

// subsets returns the attribute subsets in the family as bitmasks.
func (m *Marginals) subsets() []int {
	var out []int
	for s := 0; s < 1<<m.d; s++ {
		if m.k < 0 || bits.OnesCount(uint(s)) == m.k {
			out = append(out, s)
		}
	}
	return out
}

// Gram returns WᵀW using the closed form: for user types u, v with
// a = d − Hamming(u, v) agreeing attributes, the number of (S, t) queries
// containing both is the number of subsets S in the family with S a subset of
// the agreeing attributes: 2^a for All Marginals, C(a, k) for k-way.
func (m *Marginals) Gram() *linalg.Matrix {
	return m.cached(func() *linalg.Matrix {
		n := m.Domain()
		g := linalg.New(n, n)
		// Precompute value per agreement count.
		byAgree := make([]float64, m.d+1)
		for a := 0; a <= m.d; a++ {
			if m.k < 0 {
				byAgree[a] = float64(int(1) << a)
			} else {
				byAgree[a] = float64(binom(a, m.k))
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				a := m.d - bits.OnesCount(uint(u^v))
				g.Set(u, v, byAgree[a])
			}
		}
		return g
	})
}

// FrobNorm2 returns n · (#subsets counted per element): every user type lies
// in exactly one cell of each marginal, so the diagonal of WᵀW is constant.
func (m *Marginals) FrobNorm2() float64 {
	n := float64(m.Domain())
	if m.k < 0 {
		return n * float64(int(1)<<m.d)
	}
	return n * float64(binom(m.d, m.k))
}

// MatVec computes the marginal tables of x: for each subset S and assignment
// t, the count of u with u_S = t.
func (m *Marginals) MatVec(x []float64) []float64 {
	n := m.Domain()
	checkLen(len(x), n)
	out := make([]float64, 0, m.Queries())
	for _, s := range m.subsets() {
		table := marginalize(x, m.d, s)
		out = append(out, table...)
	}
	return out
}

// TMatVec computes Wᵀy: each query (S, t) contributes y_{S,t} to every u with
// u_S = t.
func (m *Marginals) TMatVec(y []float64) []float64 {
	n := m.Domain()
	checkLen(len(y), m.Queries())
	out := make([]float64, n)
	at := 0
	for _, s := range m.subsets() {
		cells := 1 << bits.OnesCount(uint(s))
		for u := 0; u < n; u++ {
			out[u] += y[at+compress(u, s, m.d)]
		}
		at += cells
	}
	return out
}

// marginalize sums x over the attributes not in subset s, returning the
// marginal table indexed by the compressed assignment of s's attributes.
func marginalize(x []float64, d, s int) []float64 {
	cells := 1 << bits.OnesCount(uint(s))
	table := make([]float64, cells)
	for u := range x {
		table[compress(u, s, d)] += x[u]
	}
	return table
}

// compress extracts the bits of u at the positions set in s, packing them into
// consecutive low bits (attribute order preserved).
func compress(u, s, d int) int {
	out, at := 0, 0
	for b := 0; b < d; b++ {
		if s&(1<<b) != 0 {
			if u&(1<<b) != 0 {
				out |= 1 << at
			}
			at++
		}
	}
	return out
}

// binom returns C(n, k) (0 when k > n or k < 0).
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// ---------------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------------

// Parity is the workload of all parity (character) queries over {0,1}^d:
// for every S ⊆ [d], the query w_S(u) = (−1)^{⟨u,S⟩}. W equals the ±1
// Sylvester–Hadamard matrix H_n, so WᵀW = n·I. This is the hardest workload in
// the paper's evaluation (largest nuclear norm relative to its size).
type Parity struct {
	d int
	gramCache
}

// NewParity returns the Parity workload over {0,1}^d.
func NewParity(d int) *Parity {
	mustPositive(d)
	return &Parity{d: d}
}

func (p *Parity) Name() string { return "Parity" }

// Domain returns 2^d.
func (p *Parity) Domain() int { return 1 << p.d }

// Queries returns 2^d (one query per subset S).
func (p *Parity) Queries() int { return 1 << p.d }

// Gram returns n·I (Hadamard rows are orthogonal with norm √n).
func (p *Parity) Gram() *linalg.Matrix {
	return p.cached(func() *linalg.Matrix {
		n := p.Domain()
		g := linalg.New(n, n)
		for i := 0; i < n; i++ {
			g.Set(i, i, float64(n))
		}
		return g
	})
}

// FrobNorm2 returns n².
func (p *Parity) FrobNorm2() float64 {
	n := float64(p.Domain())
	return n * n
}

// MatVec applies the fast Walsh–Hadamard transform in O(n log n).
func (p *Parity) MatVec(x []float64) []float64 {
	n := p.Domain()
	checkLen(len(x), n)
	out := linalg.CloneVec(x)
	if err := hadamard.FWHT(out); err != nil {
		panic(err) // unreachable: the domain is a power of two by construction
	}
	return out
}

// TMatVec equals MatVec because H is symmetric.
func (p *Parity) TMatVec(y []float64) []float64 { return p.MatVec(y) }

// ---------------------------------------------------------------------------
// Width-w ranges (extension workload used in examples/ablation)
// ---------------------------------------------------------------------------

// WidthRange is the workload of all contiguous ranges of a fixed width w:
// queries [i, i+w-1] for i = 0..n-w. A sliding-window / moving-count workload.
type WidthRange struct {
	n, w int
	gramCache
}

// NewWidthRange returns the workload of all width-w ranges over domain n.
func NewWidthRange(n, w int) *WidthRange {
	mustPositive(n)
	if w < 1 || w > n {
		panic(fmt.Sprintf("workload: width %d out of range for n = %d", w, n))
	}
	return &WidthRange{n: n, w: w}
}

func (r *WidthRange) Name() string { return fmt.Sprintf("Width%dRange", r.w) }

// Domain returns n.
func (r *WidthRange) Domain() int { return r.n }

// Queries returns n − w + 1.
func (r *WidthRange) Queries() int { return r.n - r.w + 1 }

// Gram returns WᵀW: entry (u,v) counts windows covering both u and v, which is
// max(0, min(u,v) − max(u,v) + w) intersected with valid window starts.
func (r *WidthRange) Gram() *linalg.Matrix {
	return r.cached(func() *linalg.Matrix {
		g := linalg.New(r.n, r.n)
		for u := 0; u < r.n; u++ {
			for v := 0; v < r.n; v++ {
				lo := max(0, max(u, v)-r.w+1)
				hi := min(r.n-r.w, min(u, v))
				if hi >= lo {
					g.Set(u, v, float64(hi-lo+1))
				}
			}
		}
		return g
	})
}

// FrobNorm2 returns tr(WᵀW).
func (r *WidthRange) FrobNorm2() float64 { return r.Gram().Trace() }

// MatVec returns the sliding-window sums in O(n).
func (r *WidthRange) MatVec(x []float64) []float64 {
	checkLen(len(x), r.n)
	out := make([]float64, r.Queries())
	run := 0.0
	for i := 0; i < r.w; i++ {
		run += x[i]
	}
	out[0] = run
	for i := 1; i < len(out); i++ {
		run += x[i+r.w-1] - x[i-1]
		out[i] = run
	}
	return out
}

// TMatVec returns Wᵀy in O(n) via a difference array.
func (r *WidthRange) TMatVec(y []float64) []float64 {
	checkLen(len(y), r.Queries())
	diff := make([]float64, r.n+1)
	for i, v := range y {
		diff[i] += v
		diff[i+r.w] -= v
	}
	out := make([]float64, r.n)
	run := 0.0
	for i := 0; i < r.n; i++ {
		run += diff[i]
		out[i] = run
	}
	return out
}

// ---------------------------------------------------------------------------
// Explicit
// ---------------------------------------------------------------------------

// Explicit wraps an arbitrary materialized workload matrix. The paper allows W
// to be completely arbitrary, including repeated or linearly dependent rows.
type Explicit struct {
	name string
	w    *linalg.Matrix
	gramCache
}

// NewExplicit wraps matrix w as a workload. The matrix is used directly, not
// copied.
func NewExplicit(name string, w *linalg.Matrix) *Explicit {
	return &Explicit{name: name, w: w}
}

func (e *Explicit) Name() string { return e.name }

// Domain returns the number of columns of W.
func (e *Explicit) Domain() int { return e.w.Cols() }

// Queries returns the number of rows of W.
func (e *Explicit) Queries() int { return e.w.Rows() }

// Gram computes and caches WᵀW.
func (e *Explicit) Gram() *linalg.Matrix {
	return e.cached(func() *linalg.Matrix { return linalg.Gram(e.w) })
}

// FrobNorm2 returns ‖W‖²_F.
func (e *Explicit) FrobNorm2() float64 { return e.w.FrobNorm2() }

// MatVec returns W·x.
func (e *Explicit) MatVec(x []float64) []float64 { return e.w.MulVec(x) }

// TMatVec returns Wᵀ·y.
func (e *Explicit) TMatVec(y []float64) []float64 { return e.w.MulVecT(y) }

// ---------------------------------------------------------------------------
// Stacked (weighted union)
// ---------------------------------------------------------------------------

// Stacked concatenates several workloads over the same domain, each scaled by
// a weight expressing its relative importance (the workload semantics of
// Section 1: "the exact queries they care about most, and their relative
// importance").
type Stacked struct {
	name    string
	parts   []Workload
	weights []float64
	gramCache
}

// NewStacked concatenates the given workloads with the given weights. All
// parts must share a domain; weights must be positive, finite and match parts
// in length.
func NewStacked(name string, parts []Workload, weights []float64) *Stacked {
	if len(parts) == 0 {
		panic("workload: Stacked needs at least one part")
	}
	if len(weights) != len(parts) {
		panic("workload: Stacked weights/parts length mismatch")
	}
	n := parts[0].Domain()
	for _, p := range parts {
		if p.Domain() != n {
			panic("workload: Stacked domain mismatch")
		}
	}
	for _, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("workload: Stacked weights must be positive and finite, got %v", w))
		}
	}
	return &Stacked{name: name, parts: parts, weights: weights}
}

func (s *Stacked) Name() string { return s.name }

// Domain returns the shared domain size.
func (s *Stacked) Domain() int { return s.parts[0].Domain() }

// Queries returns the total number of queries across parts.
func (s *Stacked) Queries() int {
	p := 0
	for _, w := range s.parts {
		p += w.Queries()
	}
	return p
}

// Gram returns Σ_i w_i² · Gram_i.
func (s *Stacked) Gram() *linalg.Matrix {
	return s.cached(func() *linalg.Matrix {
		n := s.Domain()
		g := linalg.New(n, n)
		for i, p := range s.parts {
			g.AddScaled(s.weights[i]*s.weights[i], p.Gram())
		}
		return g
	})
}

// FrobNorm2 returns Σ_i w_i² ‖W_i‖²_F.
func (s *Stacked) FrobNorm2() float64 {
	t := 0.0
	for i, p := range s.parts {
		t += s.weights[i] * s.weights[i] * p.FrobNorm2()
	}
	return t
}

// MatVec concatenates the weighted part answers.
func (s *Stacked) MatVec(x []float64) []float64 {
	out := make([]float64, 0, s.Queries())
	for i, p := range s.parts {
		part := p.MatVec(x)
		linalg.ScaleVec(s.weights[i], part)
		out = append(out, part...)
	}
	return out
}

// TMatVec sums the weighted transposed part products.
func (s *Stacked) TMatVec(y []float64) []float64 {
	out := make([]float64, s.Domain())
	at := 0
	for i, p := range s.parts {
		part := p.TMatVec(y[at : at+p.Queries()])
		linalg.AxpyVec(s.weights[i], part, out)
		at += p.Queries()
	}
	return out
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func mustPositive(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("workload: domain parameter must be positive, got %d", n))
	}
}

func checkLen(got, want int) {
	if got != want {
		panic(fmt.Sprintf("workload: vector length %d, want %d", got, want))
	}
}

// ByName constructs one of the paper's six evaluation workloads by name for a
// given domain size. Marginals/Parity require n to be a power of two.
func ByName(name string, n int) (Workload, error) {
	switch name {
	case "Histogram":
		return NewHistogram(n), nil
	case "Prefix":
		return NewPrefix(n), nil
	case "AllRange":
		return NewAllRange(n), nil
	case "AllMarginals":
		d, err := log2Exact(n)
		if err != nil {
			return nil, err
		}
		return NewAllMarginals(d), nil
	case "3-WayMarginals":
		d, err := log2Exact(n)
		if err != nil {
			return nil, err
		}
		k := 3
		if d < 3 {
			k = d
		}
		return NewKWayMarginals(d, k), nil
	case "Parity":
		d, err := log2Exact(n)
		if err != nil {
			return nil, err
		}
		return NewParity(d), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// PaperWorkloads lists the six evaluation workloads in the paper's order.
var PaperWorkloads = []string{"Histogram", "Prefix", "AllRange", "AllMarginals", "3-WayMarginals", "Parity"}

func log2Exact(n int) (int, error) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("workload: domain size %d is not a power of two", n)
	}
	return bits.TrailingZeros(uint(n)), nil
}
