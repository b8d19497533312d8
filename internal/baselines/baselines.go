// Package baselines implements every competitor mechanism from the paper's
// evaluation (Section 6.1): Randomized Response [44], Hadamard response [2],
// Hierarchical [13, 42], Fourier [12], the distributed Matrix Mechanism in
// its L1 (Laplace) and L2 (Gaussian) forms [27, 17], the Gaussian mechanism
// [4], and the two mechanisms the paper discusses but omits from its plots
// for exponential strategy size — RAPPOR [18] and Subset Selection [45]
// (available here for small domains).
//
// The first four are workload factorization mechanisms (Table 1): each is a
// fixed strategy matrix Q, re-used across workloads with the optimal
// reconstruction V of Theorem 3.10. The Matrix Mechanism and Gaussian
// mechanism are additive-noise mechanisms.
package baselines

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hadamard"
	"repro/internal/linalg"
	"repro/internal/mechanism"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// RandomizedResponse returns Warner's randomized response mechanism
// (Example 2.7): report the true type with probability ∝ e^ε, anything else
// with probability ∝ 1.
func RandomizedResponse(n int, eps float64) *mechanism.Factorization {
	e := math.Exp(eps)
	denom := e + float64(n) - 1
	q := linalg.New(n, n)
	for o := 0; o < n; o++ {
		row := q.Row(o)
		for u := 0; u < n; u++ {
			if o == u {
				row[u] = e / denom
			} else {
				row[u] = 1 / denom
			}
		}
	}
	return mechanism.NewFactorization("Randomized Response", strategy.New(q, eps))
}

// HadamardResponse returns the Hadamard response mechanism of Acharya et al.
// (Table 1): K = 2^⌈log2(n+1)⌉ outputs; user u reports output o with
// probability ∝ e^ε when H_{o,u+1} = +1 and ∝ 1 otherwise, where H is the
// K×K Sylvester–Hadamard matrix and users are assigned the non-constant
// columns 1..n.
func HadamardResponse(n int, eps float64) *mechanism.Factorization {
	k := hadamard.NextPow2(n + 1)
	e := math.Exp(eps)
	// Every non-constant Hadamard column has K/2 entries of each sign, so the
	// normalizer is shared by all users.
	denom := float64(k) / 2 * (e + 1)
	q := linalg.New(k, n)
	for o := 0; o < k; o++ {
		row := q.Row(o)
		for u := 0; u < n; u++ {
			if hadamard.Sign(o, u+1) > 0 {
				row[u] = e / denom
			} else {
				row[u] = 1 / denom
			}
		}
	}
	return mechanism.NewFactorization("Hadamard", strategy.New(q, eps))
}

// Hierarchical returns the hierarchical-histogram mechanism for range-query
// workloads [13, 42]: the domain is covered by L levels of progressively
// finer interval partitions (branching factor b, leaf level = singletons);
// each user picks a level uniformly at random and runs randomized response
// over that level's cells. Outputs are (level, cell) pairs.
func Hierarchical(n int, eps float64, branch int) (*mechanism.Factorization, error) {
	if branch < 2 {
		return nil, fmt.Errorf("baselines: branching factor must be ≥ 2, got %d", branch)
	}
	// Cell widths per level: n/b, n/b², ..., 1 (rounded up), deduplicated.
	var widths []int
	for w := ceilDiv(n, branch); ; w = ceilDiv(w, branch) {
		if len(widths) == 0 || widths[len(widths)-1] != w {
			widths = append(widths, w)
		}
		if w == 1 {
			break
		}
	}
	levels := len(widths)
	e := math.Exp(eps)
	rows := 0
	for _, w := range widths {
		rows += ceilDiv(n, w)
	}
	q := linalg.New(rows, n)
	at := 0
	for _, w := range widths {
		cells := ceilDiv(n, w)
		denom := float64(levels) * (e + float64(cells) - 1)
		for c := 0; c < cells; c++ {
			row := q.Row(at)
			for u := 0; u < n; u++ {
				if u/w == c {
					row[u] = e / denom
				} else {
					row[u] = 1 / denom
				}
			}
			at++
		}
	}
	return mechanism.NewFactorization("Hierarchical", strategy.New(q, eps)), nil
}

// Fourier returns the Fourier mechanism for marginal workloads over binary
// domains [12]: each user samples a non-empty subset S with |S| ≤ maxOrder
// uniformly from the needed Fourier coefficients and reports a randomized
// response of the parity bit χ_S(u) = (−1)^{⟨u,S⟩}. Outputs are (S, ±1)
// pairs. The domain size is 2^d; maxOrder ≤ 0 means all orders (d).
func Fourier(d int, eps float64, maxOrder int) (*mechanism.Factorization, error) {
	if d < 1 {
		return nil, fmt.Errorf("baselines: need d ≥ 1 binary attributes, got %d", d)
	}
	if maxOrder <= 0 || maxOrder > d {
		maxOrder = d
	}
	var subsets []int
	for s := 1; s < 1<<d; s++ {
		if bits.OnesCount(uint(s)) <= maxOrder {
			subsets = append(subsets, s)
		}
	}
	n := 1 << d
	e := math.Exp(eps)
	q := linalg.New(2*len(subsets), n)
	denom := float64(len(subsets)) * (e + 1)
	for i, s := range subsets {
		plus, minus := q.Row(2*i), q.Row(2*i+1)
		for u := 0; u < n; u++ {
			if bits.OnesCount(uint(s&u))%2 == 0 { // χ_S(u) = +1
				plus[u] = e / denom
				minus[u] = 1 / denom
			} else {
				plus[u] = 1 / denom
				minus[u] = e / denom
			}
		}
	}
	return mechanism.NewFactorization("Fourier", strategy.New(q, eps)), nil
}

// maxExplicitRows caps the materialized strategy size of the exponential
// mechanisms (RAPPOR, Subset Selection) — the same constraint that makes the
// paper omit them from its evaluation (Section 6.1).
const maxExplicitRows = 1 << 17

// SubsetSelection returns the subset-selection mechanism of Ye & Barg
// (Table 1): outputs are all size-d subsets of the domain; user u reports a
// subset with probability ∝ e^ε when it contains u and ∝ 1 otherwise.
// d ≤ 0 selects the asymptotically optimal d ≈ n/(e^ε + 1). The strategy has
// C(n, d) rows and is only materialized for small domains.
func SubsetSelection(n int, eps float64, d int) (*mechanism.Factorization, error) {
	e := math.Exp(eps)
	if d <= 0 {
		d = int(math.Round(float64(n) / (e + 1)))
		if d < 1 {
			d = 1
		}
	}
	if d > n {
		return nil, fmt.Errorf("baselines: subset size %d exceeds domain %d", d, n)
	}
	rows := binom(n, d)
	if rows <= 0 || rows > maxExplicitRows {
		return nil, fmt.Errorf("baselines: subset selection needs %d rows (cap %d); the paper omits it for the same reason", rows, maxExplicitRows)
	}
	// Column u: C(n−1, d−1) subsets contain u.
	denom := e*float64(binom(n-1, d-1)) + float64(rows-binom(n-1, d-1))
	q := linalg.New(rows, n)
	at := 0
	forEachSubset(n, d, func(mask uint) {
		row := q.Row(at)
		for u := 0; u < n; u++ {
			if mask&(1<<u) != 0 {
				row[u] = e / denom
			} else {
				row[u] = 1 / denom
			}
		}
		at++
	})
	name := fmt.Sprintf("Subset Selection (d=%d)", d)
	return mechanism.NewFactorization(name, strategy.New(q, eps)), nil
}

// RAPPOR returns the basic one-hot RAPPOR mechanism (Table 1): the user's
// type is one-hot encoded into n bits and every bit is flipped independently
// with probability 1/(1+e^{ε/2}); the output range is {0,1}^n. The strategy
// has 2^n rows and is only materialized for small domains.
func RAPPOR(n int, eps float64) (*mechanism.Factorization, error) {
	if n >= 18 || 1<<n > maxExplicitRows {
		return nil, fmt.Errorf("baselines: RAPPOR needs 2^%d rows (cap %d); the paper omits it for the same reason", n, maxExplicitRows)
	}
	e2 := math.Exp(eps / 2)
	keep := e2 / (1 + e2) // probability a bit is reported truthfully
	q := linalg.New(1<<n, n)
	for o := 0; o < 1<<n; o++ {
		row := q.Row(o)
		for u := 0; u < n; u++ {
			// Hamming distance between output o and one-hot e_u.
			dist := bits.OnesCount(uint(o) ^ (1 << u))
			row[u] = math.Pow(keep, float64(n-dist)) * math.Pow(1-keep, float64(dist))
		}
	}
	return mechanism.NewFactorization("RAPPOR", strategy.New(q, eps)), nil
}

// gaussianNoiseFactor converts ε to the Gaussian noise multiplier
// σ = Δ₂·√(2 ln(1.25/δ))/ε with δ = 1e−6: the classical analytic Gaussian
// calibration. The paper is not explicit about its L2 calibration; this
// choice preserves the qualitative behaviour the paper reports — L2 mechanisms lose badly at small domains and catch up only
// as n grows.
const gaussianDelta = 1e-6

func gaussianNoiseFactor(eps float64) float64 {
	return math.Sqrt(2*math.Log(1.25/gaussianDelta)) / eps
}

// sqrtStrategy returns A = G^{1/4} (so AᵀA = G^{1/2}), the square-root
// strategy that is the classical near-optimal solution of the L2 Matrix
// Mechanism program min tr(X⁻¹G) s.t. bounded diagonal [29, 46]: for this A,
// ‖WA⁺‖²_F = tr(G^{1/2}) = Σ singular values of W.
func sqrtStrategy(gram *linalg.Matrix) (*linalg.Matrix, error) {
	vals, vecs, err := linalg.SymEigen(gram)
	if err != nil {
		return nil, err
	}
	quarter := make([]float64, len(vals))
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		quarter[i] = math.Pow(v, 0.25)
	}
	scaled := vecs.Clone().ScaleCols(quarter)
	return linalg.MulABt(scaled, vecs), nil
}

// MatrixMechanismL2 returns the distributed L2 Matrix Mechanism [17, 27]:
// each user reports A·e_u plus per-coordinate Gaussian noise calibrated to
// the exact pairwise-column L2 diameter of A; the analyst reconstructs with
// W·A⁺. The strategy A = G^{1/4} is the square-root mechanism.
func MatrixMechanismL2(w workload.Workload, eps float64) (*mechanism.Additive, error) {
	a, err := sqrtStrategy(w.Gram())
	if err != nil {
		return nil, err
	}
	delta2 := mechanism.PairwiseColumnDiameter(a, 2)
	sigma := delta2 * gaussianNoiseFactor(eps)
	return mechanism.NewAdditive("Matrix Mechanism (L2)", a, eps, sigma*sigma), nil
}

// MatrixMechanismL1 returns the distributed L1 Matrix Mechanism: per-user
// Laplace noise with scale Δ₁(A)/ε where Δ₁ is the exact pairwise-column L1
// diameter (per-coordinate variance 2(Δ₁/ε)²), over the same square-root
// strategy.
func MatrixMechanismL1(w workload.Workload, eps float64) (*mechanism.Additive, error) {
	a, err := sqrtStrategy(w.Gram())
	if err != nil {
		return nil, err
	}
	delta1 := mechanism.PairwiseColumnDiameter(a, 1)
	b := delta1 / eps
	return mechanism.NewAdditive("Matrix Mechanism (L1)", a, eps, 2*b*b), nil
}

// Gaussian returns the Gaussian mechanism of Bassily [4]: A = I (each user
// perturbs their one-hot encoding directly). The paper omits it from plots as
// strictly dominated by the L2 Matrix Mechanism; it is provided for
// completeness and for verifying that domination.
func Gaussian(n int, eps float64) *mechanism.Additive {
	delta2 := math.Sqrt2 // ‖e_u − e_v‖₂
	sigma := delta2 * gaussianNoiseFactor(eps)
	return mechanism.NewAdditive("Gaussian", linalg.Identity(n), eps, sigma*sigma)
}

// Competitors builds the paper's six competitor mechanisms (Figure 1's legend
// minus "Optimized") for a workload over domain size n. The Fourier mechanism
// requires a power-of-two domain; when n is not a power of two it is skipped.
// The Matrix Mechanism variants depend on the workload.
func Competitors(w workload.Workload, eps float64) ([]mechanism.Mechanism, error) {
	n := w.Domain()
	out := []mechanism.Mechanism{RandomizedResponse(n, eps), HadamardResponse(n, eps)}
	h, err := Hierarchical(n, eps, 4)
	if err != nil {
		return nil, err
	}
	out = append(out, h)
	if n&(n-1) == 0 && n > 1 {
		d := bits.TrailingZeros(uint(n))
		// All orders: the full-order Fourier strategy has full column rank
		// (its rows span {χ_S}), so it can answer every workload — that is
		// how the paper runs it outside the marginals panels.
		f, err := Fourier(d, eps, d)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	l1, err := MatrixMechanismL1(w, eps)
	if err != nil {
		return nil, err
	}
	l2, err := MatrixMechanismL2(w, eps)
	if err != nil {
		return nil, err
	}
	out = append(out, l1, l2)
	return out, nil
}

// WarmStarts returns the strategy matrices of the factorization mechanisms
// among ms, in order: the warm-start candidates core.OptimizeBest compares
// against its own run.
func WarmStarts(ms []mechanism.Mechanism) []*strategy.Strategy {
	var out []*strategy.Strategy
	for _, m := range ms {
		if f, ok := m.(*mechanism.Factorization); ok {
			out = append(out, f.Strategy())
		}
	}
	return out
}

// ceilDiv returns ⌈a/b⌉ for positive integers.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// binom returns C(n, k), or a negative value on overflow.
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
		if c < 0 || c > 1<<40 {
			return -1
		}
	}
	return c
}

// forEachSubset enumerates all size-d subsets of {0..n−1} as bitmasks in
// lexicographic order (Gosper's hack).
func forEachSubset(n, d int, fn func(mask uint)) {
	if d == 0 {
		fn(0)
		return
	}
	v := uint(1<<d) - 1
	limit := uint(1) << n
	for v < limit {
		fn(v)
		// Gosper's hack: next integer with the same popcount.
		c := v & (-v)
		r := v + c
		v = (((r ^ v) >> 2) / c) | r
	}
}
