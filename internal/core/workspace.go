package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/opt"
)

// Workspace holds every scratch buffer one optimization run needs at a fixed
// shape (m outputs × n user types), so steady-state iterations of Algorithm 2
// allocate nothing: objective/gradient evaluation, the candidate step, the
// momentum state, and the double-buffered projection all reuse the buffers
// here.
//
// Contract: the Workspace owns its scratch. The grad destination passed to
// ObjectiveGrad must not alias that call's inputs (q, gram, prior) or the
// objective/gradient scratch fields (d, dinv, qs, gamma, msym, y, yt, s, the
// Cholesky factor) — ObjectiveGrad writes those while grad is being filled.
// The loop-state fields (grad/gradNext, cand, velQ, bestQ, the z buffers,
// freeMean, the projections) are not touched by ObjectiveGrad, which is how
// run double-buffers gradients through ws.grad/ws.gradNext. A Workspace is not
// safe for concurrent use — give each goroutine its own (the methods
// themselves fan out internally via linalg's parallel kernels, which is why
// per-run parallelism composes with the experiment harness's per-cell
// parallelism).
type Workspace struct {
	m, n int

	// Objective/gradient scratch: D_p diagonal and its inverse, Qs = D⁻¹Q,
	// M = QᵀD⁻¹Q (exactly symmetric: linalg.MulAtBSymTo mirrors one
	// triangle), Y = M⁻¹G, its transpose, S = M⁻¹GᵀM⁻¹ (a product of two
	// solves, symmetrized by averaging), Γ = Qs·S, and the reusable Cholesky
	// factor of M.
	d, dinv   []float64
	qs, gamma *linalg.Matrix
	msym      *linalg.Matrix
	y, yt, s  *linalg.Matrix
	chol      linalg.Cholesky
	// mulM forms M: always linalg.MulAtBSymTo. It is a field only so that
	// TestSameArithmeticAsFullProduct can put the full product + Symmetrize
	// back and show that every other kernel kept the strategies' bits.
	mulM func(dst, a, b *linalg.Matrix)

	// Projected-gradient loop state (used by run): current/candidate
	// gradient, candidate Q, momentum velocity, best iterate, the bound
	// vector z and its step buffers, gradZ's per-column free-coordinate
	// means (length n), and the double-buffered projection.
	grad, gradNext    *linalg.Matrix
	cand, velQ        *linalg.Matrix
	bestQ             *linalg.Matrix
	z, gz, newZ, velZ []float64
	freeMean          []float64
	proj, projNext    opt.MatrixProjection
	scratch           opt.Scratch
}

// NewWorkspace allocates a workspace for strategies with m outputs over a
// domain of n user types.
func NewWorkspace(m, n int) *Workspace {
	return &Workspace{
		m: m, n: n,
		d:     make([]float64, m),
		dinv:  make([]float64, m),
		qs:    linalg.New(m, n),
		gamma: linalg.New(m, n),
		msym:  linalg.New(n, n),
		y:     linalg.New(n, n),
		yt:    linalg.New(n, n),
		s:     linalg.New(n, n),
		mulM:  linalg.MulAtBSymTo,

		grad:     linalg.New(m, n),
		gradNext: linalg.New(m, n),
		cand:     linalg.New(m, n),
		velQ:     linalg.New(m, n),
		bestQ:    linalg.New(m, n),
		z:        make([]float64, m),
		gz:       make([]float64, m),
		newZ:     make([]float64, m),
		velZ:     make([]float64, m),
		freeMean: make([]float64, n),
	}
}

// ObjectiveGrad evaluates L(Q) = tr[(QᵀD_p⁻¹Q)⁻¹ G] and writes its gradient
// into grad (shape m×n, caller-owned); a nil prior means p = 1 (the paper's
// uniform objective). It returns an error when QᵀD_p⁻¹Q is numerically
// singular (the strategy cannot express a full-rank workload). Steady-state
// calls allocate nothing.
func (ws *Workspace) ObjectiveGrad(q, gram *linalg.Matrix, prior []float64, grad *linalg.Matrix) (float64, error) {
	m, n := ws.m, ws.n
	if q.Rows() != m || q.Cols() != n {
		return 0, fmt.Errorf("core: workspace is %dx%d, Q is %dx%d", m, n, q.Rows(), q.Cols())
	}
	if prior == nil {
		q.RowSumsTo(ws.d)
	} else {
		q.MulVecTo(ws.d, prior)
	}
	for i, v := range ws.d {
		if v <= 0 {
			return 0, fmt.Errorf("core: output %d has zero mass", i)
		}
		ws.dinv[i] = 1 / v
	}
	q.ScaleRowsTo(ws.qs, ws.dinv) // D⁻¹Q
	ws.mulM(ws.msym, q, ws.qs)    // M = QᵀD⁻¹Q, one triangle mirrored

	if err := ws.chol.Factor(ws.msym); err != nil {
		return 0, fmt.Errorf("core: M = QᵀD⁻¹Q singular: %w", err)
	}
	ws.chol.SolveTo(ws.y, gram) // M⁻¹G
	obj := ws.y.Trace()
	ws.y.TransposeTo(ws.yt)
	ws.chol.SolveTo(ws.s, ws.yt) // M⁻¹GᵀM⁻¹ = S (G symmetric)
	ws.s.Symmetrize()

	linalg.MulTo(ws.gamma, ws.qs, ws.s) // Γ = D⁻¹QS (m×n)
	for o := 0; o < m; o++ {
		h := linalg.Dot(ws.gamma.Row(o), ws.qs.Row(o)) // diag(Qs S Qsᵀ)_o
		gRow := grad.Row(o)
		gaRow := ws.gamma.Row(o)
		if prior == nil {
			for u := 0; u < n; u++ {
				gRow[u] = -2*gaRow[u] + h
			}
		} else {
			// dD_p = Diag(dQ·p): the h term picks up the prior weight.
			for u := 0; u < n; u++ {
				gRow[u] = -2*gaRow[u] + h*prior[u]
			}
		}
	}
	return obj, nil
}
