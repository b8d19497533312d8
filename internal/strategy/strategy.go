// Package strategy implements the strategy-matrix representation of LDP
// mechanisms (Section 2.2 of the paper) and all of the variance algebra of
// Sections 3 and 5.
//
// A strategy matrix Q ∈ R^{m×n} encodes a local randomizer: column u is the
// output distribution Pr[M(u) = ·] for user type u. Q defines an ε-LDP
// mechanism iff (Proposition 2.6)
//
//  1. Q_{ou} ≤ e^ε · Q_{ou'} for all outputs o and user types u, u', and
//  2. every column is a probability distribution.
//
// Together with a reconstruction matrix V satisfying W = VQ, Q defines the
// workload factorization mechanism M_{V,Q}(x) = V·M_Q(x) (Definition 3.2),
// whose estimates are unbiased for the workload answers Wx.
//
// All variance quantities are computed from the workload only through its
// Gram matrix G = WᵀW:
//
//	B      = (QᵀD⁻¹Q)⁺ QᵀD⁻¹          (so the optimal V = W·B, Theorem 3.10)
//	C      = Bᵀ G B                    (m×m)
//	var(u) = qᵤᵀ diag(C) − qᵤᵀ C qᵤ    (per-user-type variance, Theorem 3.4)
//
// where D = Diag(Q·1). L_worst = N·maxᵤ var(u) (Corollary 3.5), L_avg =
// (N/n)·Σᵤ var(u) (Corollary 3.6), and the optimization objective is
// L(Q) = tr[(QᵀD⁻¹Q)⁺ G] (Theorem 3.11).
package strategy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Strategy is an ε-LDP strategy matrix: Q is m×n with columns that are
// probability distributions over m outputs.
type Strategy struct {
	// Q is the m×n strategy matrix; Q[o][u] = Pr[M(u) = o].
	Q *linalg.Matrix
	// Eps is the privacy budget ε the matrix is claimed to satisfy.
	Eps float64
}

// New wraps a strategy matrix with its privacy budget. It does not validate;
// call Validate for that.
func New(q *linalg.Matrix, eps float64) *Strategy {
	return &Strategy{Q: q, Eps: eps}
}

// Outputs returns m, the size of the output range.
func (s *Strategy) Outputs() int { return s.Q.Rows() }

// Domain returns n, the number of user types.
func (s *Strategy) Domain() int { return s.Q.Cols() }

// ErrNotLDP is wrapped by Validate errors when the matrix violates the ε-LDP
// constraints of Proposition 2.6.
var ErrNotLDP = errors.New("strategy: matrix violates LDP constraints")

// Validate checks the conditions of Proposition 2.6: non-negativity and
// column sums equal to one to within the absolute tol, and the e^ε ratio
// bound between any two entries in the same row to within the relative tol.
// The ratio bound is checked via the row min/max, which is exactly equivalent
// to the all-pairs condition; a row that mixes a zero with a positive entry
// has an unbounded ratio and is refused at any ε.
func (s *Strategy) Validate(tol float64) error {
	q := s.Q
	m, n := q.Rows(), q.Cols()
	if m == 0 || n == 0 {
		return fmt.Errorf("%w: empty strategy matrix", ErrNotLDP)
	}
	ratio := math.Exp(s.Eps)
	for o := 0; o < m; o++ {
		row := q.Row(o)
		lo, hi := row[0], row[0]
		for _, v := range row {
			if v < -tol {
				return fmt.Errorf("%w: negative probability %g in row %d", ErrNotLDP, v, o)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		// hi ≤ e^ε·lo, with a relative tolerance to absorb round-off: an
		// absolute one would pass rows whose entries are all below it, whatever
		// their ratio.
		if hi > ratio*lo*(1+tol) || (lo <= 0 && hi > 0) {
			return fmt.Errorf("%w: row %d ratio %g exceeds e^ε = %g (min %g, max %g)",
				ErrNotLDP, o, hi/math.Max(lo, 1e-300), ratio, lo, hi)
		}
	}
	for u := 0; u < n; u++ {
		sum := 0.0
		for o := 0; o < m; o++ {
			sum += q.At(o, u)
		}
		if math.Abs(sum-1) > tol*float64(m) {
			return fmt.Errorf("%w: column %d sums to %g, want 1", ErrNotLDP, u, sum)
		}
	}
	return nil
}

// Recon is the workload-independent part of the optimal reconstruction of
// Theorem 3.10: B = (QᵀD⁻¹Q)⁺ QᵀD⁻¹, so the variance-optimal V for workload
// W is W·B. When Q is column-rank deficient, Proj carries the projection
// Q⁺Q = M⁺M needed to verify the factorization constraint W = WQ⁺Q for a
// given workload.
type Recon struct {
	// B is (QᵀD⁻¹Q)⁺QᵀD⁻¹, n×m.
	B *linalg.Matrix
	// FullRank reports whether M = QᵀD⁻¹Q was numerically positive definite.
	FullRank bool
	// Proj is M⁺M (nil when FullRank): the orthogonal projection onto Q's
	// row space.
	Proj *linalg.Matrix
}

// Reconstruction computes the optimal reconstruction factor together with
// rank information.
func (s *Strategy) Reconstruction() (*Recon, error) {
	return s.ReconstructionWithWeights(nil)
}

// ReconstructionWithWeights computes the reconstruction factor that is
// variance-optimal under a prior distribution over user types (the paper's
// footnote 2: "if we had a prior distribution over x, we could use that to
// estimate variance"). With D_p = Diag(Q·p), the prior-weighted expected
// loss of V is tr(V·D_p·Vᵀ) up to workload constants, minimized by
// V = W(QᵀD_p⁻¹Q)⁺QᵀD_p⁻¹ — the same derivation as Theorem 3.10 with D_p in
// place of D. weights == nil means the uniform prior (the paper's L_avg),
// which reduces exactly to Theorem 3.10.
func (s *Strategy) ReconstructionWithWeights(weights []float64) (*Recon, error) {
	var f NormalForm
	err := f.Form(s.Q, weights)
	if err == nil {
		// B = M⁻¹ (D⁻¹Q)ᵀ = M⁻¹ Qsᵀ.
		return &Recon{B: f.Chol.Solve(f.Qs.T()), FullRank: true}, nil
	}
	if !errors.Is(err, linalg.ErrSingular) {
		return nil, err
	}
	pinv, err := linalg.PinvPSD(f.m, 1e-12)
	if err != nil {
		return nil, fmt.Errorf("strategy: reconstruction solve failed: %w", err)
	}
	return &Recon{
		B:    linalg.Mul(pinv, f.Qs.T()),
		Proj: linalg.Mul(pinv, f.m),
	}, nil
}

// SupportsGram verifies the factorization constraint W = WQ⁺Q (Theorem 3.10's
// applicability condition) for a workload given by its Gram matrix: W lies in
// the row space of Q iff tr(G·(I − M⁺M)) = 0. ErrUnsupportedWorkload is
// wrapped when the constraint fails — the strategy simply cannot express the
// workload unbiasedly.
func (r *Recon) SupportsGram(gram *linalg.Matrix) error {
	if r.FullRank {
		return nil
	}
	// residual = tr(G) − tr(G·Proj); both O(n²) given Proj.
	trG := gram.Trace()
	trGP := 0.0
	n := gram.Rows()
	for i := 0; i < n; i++ {
		trGP += linalg.Dot(gram.Row(i), r.Proj.Col(i))
	}
	if trG-trGP > 1e-6*(1+trG) {
		return fmt.Errorf("%w: workload energy %g outside strategy row space (tr G = %g)",
			ErrUnsupportedWorkload, trG-trGP, trG)
	}
	return nil
}

// ErrUnsupportedWorkload is wrapped when a workload is not expressible by a
// (rank-deficient) strategy, i.e. W ≠ WQ⁺Q.
var ErrUnsupportedWorkload = errors.New("strategy: workload not in the strategy's row space")

// OptimalV returns the variance-optimal reconstruction matrix
// V = W (QᵀD⁻¹Q)⁺ QᵀD⁻¹ for an explicit workload matrix w (Theorem 3.10).
func (s *Strategy) OptimalV(w *linalg.Matrix) (*linalg.Matrix, error) {
	if w.Cols() != s.Domain() {
		return nil, fmt.Errorf("strategy: workload has %d columns, domain is %d", w.Cols(), s.Domain())
	}
	r, err := s.Reconstruction()
	if err != nil {
		return nil, err
	}
	return linalg.Mul(w, r.B), nil
}

// Objective evaluates L(Q) = tr[(QᵀD⁻¹Q)⁺ G] (Theorem 3.11) for the workload
// Gram matrix G = WᵀW — or, with weights over user types, the prior-weighted
// L_p = tr[(QᵀD_p⁻¹Q)⁺ G] with D_p = Diag(Q·p) (footnote 2; nil weights are
// the uniform L). It returns +Inf when the factorization constraint W = WQ⁺Q
// cannot hold because M is singular on W's row space (detected via a failed
// Cholesky combined with G having mass outside Q's row space).
func (s *Strategy) Objective(gram *linalg.Matrix, weights []float64) (float64, error) {
	n := s.Domain()
	if gram.Rows() != n || gram.Cols() != n {
		return 0, fmt.Errorf("strategy: Gram matrix is %dx%d, want %dx%d", gram.Rows(), gram.Cols(), n, n)
	}
	var f NormalForm
	err := f.Form(s.Q, weights)
	if err == nil {
		// tr(M⁻¹G) = Σ diag of solve(M, G).
		return f.Chol.Solve(gram).Trace(), nil
	}
	if !errors.Is(err, linalg.ErrSingular) {
		return 0, err
	}
	// Rank-deficient M: use the pseudo-inverse, but only when W actually lies
	// in the row space of Q — otherwise the mechanism cannot express W and
	// the objective is +∞ (constraint W = WQ⁺Q of Problem 3.12).
	pinv, err := linalg.PinvPSD(f.m, 1e-12)
	if err != nil {
		return 0, err
	}
	r := &Recon{Proj: linalg.Mul(pinv, f.m)}
	if err := r.SupportsGram(gram); err != nil {
		return math.Inf(1), err
	}
	return linalg.Mul(pinv, gram).Trace(), nil
}

// VarianceProfile holds per-user-type variances for a fixed factorization:
// PerUser[u] is the total variance over all workload queries contributed by a
// single user of type u (Theorem 3.4 with x = e_u).
type VarianceProfile struct {
	// PerUser[u] = Σ_i vᵢᵀDiag(qᵤ)vᵢ − (vᵢᵀqᵤ)².
	PerUser []float64
	// Queries is p, the number of workload queries (for normalization).
	Queries int
}

// Variances computes the per-user-type variance profile of the factorization
// mechanism that uses strategy s with the optimal V for a workload with Gram
// matrix gram and p queries.
func (s *Strategy) Variances(gram *linalg.Matrix, p int) (*VarianceProfile, error) {
	r, err := s.Reconstruction()
	if err != nil {
		return nil, err
	}
	if err := r.SupportsGram(gram); err != nil {
		return nil, err
	}
	return s.VariancesWithRecon(gram, p, r.B)
}

// VariancesWithRecon is Variances with a precomputed reconstruction factor B
// (Reconstruction().B), so multiple workloads can share the expensive solve.
func (s *Strategy) VariancesWithRecon(gram *linalg.Matrix, p int, b *linalg.Matrix) (*VarianceProfile, error) {
	n := s.Domain()
	m := s.Outputs()
	if gram.Rows() != n {
		return nil, fmt.Errorf("strategy: Gram matrix is %dx%d, want %dx%d", gram.Rows(), gram.Cols(), n, n)
	}
	// C = Bᵀ G B (m×m). Computed as (GB)ᵀ B column-block-wise to avoid m×m
	// storage when only diag(C) and quadratic forms are needed? C is m×m with
	// m = O(n); at m = 4n, C has 16n² entries — acceptable, and we need full C
	// for the quadratic form qᵤᵀCqᵤ anyway.
	gb := linalg.Mul(gram, b) // n×m
	c := linalg.MulAtB(b, gb) // m×m
	diag := c.DiagOf()
	vars := make([]float64, n)
	cq := make([]float64, m)
	for u := 0; u < n; u++ {
		qu := s.Q.Col(u)
		// qᵤᵀ diag(C)
		lin := linalg.Dot(qu, diag)
		// qᵤᵀ C qᵤ
		for o := 0; o < m; o++ {
			cq[o] = linalg.Dot(c.Row(o), qu)
		}
		quad := linalg.Dot(qu, cq)
		v := lin - quad
		if v < 0 && v > -1e-9 {
			v = 0 // round-off guard: variance is non-negative by construction
		}
		vars[u] = v
	}
	return &VarianceProfile{PerUser: vars, Queries: p}, nil
}

// VariancesExplicit computes the variance profile directly from explicit V
// and Q by the summation formula of Theorem 3.4. O(p·m·n) — intended for
// tests and small problems; Variances is the production path.
func VariancesExplicit(v, q *linalg.Matrix, eps float64) *VarianceProfile {
	p, m := v.Rows(), v.Cols()
	n := q.Cols()
	if q.Rows() != m {
		panic("strategy: V/Q shape mismatch")
	}
	vars := make([]float64, n)
	for u := 0; u < n; u++ {
		qu := q.Col(u)
		total := 0.0
		for i := 0; i < p; i++ {
			vi := v.Row(i)
			lin, dot := 0.0, 0.0
			for o := 0; o < m; o++ {
				lin += vi[o] * vi[o] * qu[o]
				dot += vi[o] * qu[o]
			}
			total += lin - dot*dot
		}
		vars[u] = total
	}
	return &VarianceProfile{PerUser: vars, Queries: p}
}

// Worst returns L_worst for N users (Corollary 3.5): N·maxᵤ var(u).
func (vp *VarianceProfile) Worst(numUsers float64) float64 {
	return numUsers * linalg.MaxVec(vp.PerUser)
}

// Avg returns L_avg for N users (Corollary 3.6): (N/n)·Σᵤ var(u).
func (vp *VarianceProfile) Avg(numUsers float64) float64 {
	return numUsers / float64(len(vp.PerUser)) * linalg.Sum(vp.PerUser)
}

// OnData returns the exact expected total squared error Σᵤ xᵤ·var(u) for a
// concrete data vector x (Theorem 3.4).
func (vp *VarianceProfile) OnData(x []float64) float64 {
	if len(x) != len(vp.PerUser) {
		panic("strategy: data vector length mismatch")
	}
	return linalg.Dot(x, vp.PerUser)
}

// SampleComplexity returns the number of users needed to reach normalized
// worst-case variance alpha (Corollary 5.4): N ≥ maxᵤ var(u) / (p·α).
func (vp *VarianceProfile) SampleComplexity(alpha float64) float64 {
	return linalg.MaxVec(vp.PerUser) / (float64(vp.Queries) * alpha)
}

// SampleComplexityOnData returns the sample complexity for a concrete data
// distribution: N such that the normalized variance on data proportional to
// x equals alpha. Section 6.4 computes this by replacing L_worst with the
// data-dependent variance: N ≥ Σᵤ (xᵤ/‖x‖₁)·var(u) / (p·α).
func (vp *VarianceProfile) SampleComplexityOnData(x []float64, alpha float64) float64 {
	total := linalg.Sum(x)
	if total <= 0 {
		panic("strategy: data vector must have positive mass")
	}
	avg := vp.OnData(x) / total
	return avg / (float64(vp.Queries) * alpha)
}
