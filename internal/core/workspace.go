package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/strategy"
)

// Workspace holds every scratch buffer one optimization run needs at a fixed
// shape (m outputs × n user types), so steady-state iterations of Algorithm 2
// allocate nothing: objective/gradient evaluation, the momentum state, and
// the double-buffered projection all reuse the buffers here.
//
// Contract: the Workspace owns its scratch. The grad destination passed to
// ObjectiveGrad must not alias that call's inputs (q, gram, prior) or the
// objective/gradient scratch (the normal form, y, yt, s) — ObjectiveGrad
// writes those while grad is being filled, and builds Γ in grad itself.
// The loop-state fields (grad/gradNext, velQ, bestQ, the z buffers,
// freeMean, the projections) are not touched by ObjectiveGrad, which is how
// a descent double-buffers gradients through ws.grad/ws.gradNext. A Workspace
// is not safe for concurrent use — give each goroutine its own (the methods
// themselves fan out internally via linalg's parallel kernels, which is why
// per-run parallelism composes with the experiment harness's per-cell
// parallelism).
type Workspace struct {
	m, n int

	// Objective/gradient scratch: the normal form of the Q being evaluated
	// (Qs = D_p⁻¹Q, M = QᵀD_p⁻¹Q and M's Cholesky factor, re-formed by every
	// ObjectiveGrad), then Y = M⁻¹G, its transpose and S = M⁻¹GᵀM⁻¹ (a
	// product of two solves, symmetrized by averaging).
	strategy.NormalForm
	y, yt, s *linalg.Matrix

	// Projected-gradient loop state (used by a descent): current/candidate
	// gradient, momentum velocity, best iterate, the bound vector z and its
	// step buffers, gradZ's per-column free-coordinate means (length n), and
	// the double-buffered projection, whose spare Q is where the start R and
	// each candidate step are written before being projected in place.
	grad, gradNext    *linalg.Matrix
	velQ, bestQ       *linalg.Matrix
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
		y:  linalg.New(n, n),
		yt: linalg.New(n, n),
		s:  linalg.New(n, n),

		grad:     linalg.New(m, n),
		gradNext: linalg.New(m, n),
		velQ:     linalg.New(m, n),
		bestQ:    linalg.New(m, n),
		z:        make([]float64, m),
		gz:       make([]float64, m),
		newZ:     make([]float64, m),
		velZ:     make([]float64, m),
		freeMean: make([]float64, n),
		proj:     opt.MatrixProjection{Q: linalg.New(m, n)},
		projNext: opt.MatrixProjection{Q: linalg.New(m, n)},
	}
}

// ObjectiveGrad evaluates L(Q) = tr[(QᵀD_p⁻¹Q)⁻¹ G] and writes its gradient
// into grad (shape m×n, caller-owned); a nil prior means p = 1 (the paper's
// uniform objective). It returns an error when QᵀD_p⁻¹Q is numerically
// singular (the strategy cannot express a full-rank workload). Calls after
// the first allocate nothing.
func (ws *Workspace) ObjectiveGrad(q, gram *linalg.Matrix, prior []float64, grad *linalg.Matrix) (float64, error) {
	m, n := ws.m, ws.n
	if q.Rows() != m || q.Cols() != n {
		return 0, fmt.Errorf("core: workspace is %dx%d, Q is %dx%d", m, n, q.Rows(), q.Cols())
	}
	if err := ws.Form(q, prior); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	ws.Chol.SolveTo(ws.y, gram) // M⁻¹G
	obj := ws.y.Trace()
	ws.y.TransposeTo(ws.yt)
	ws.Chol.SolveTo(ws.s, ws.yt) // M⁻¹GᵀM⁻¹ = S (G symmetric)
	ws.s.Symmetrize()

	// Γ = D⁻¹QS (m×n) lands in grad; each row is then finished in place,
	// h read off it before it is overwritten.
	linalg.MulTo(grad, ws.Qs, ws.s)
	for o := 0; o < m; o++ {
		gRow := grad.Row(o)
		h := linalg.Dot(gRow, ws.Qs.Row(o)) // diag(Qs S Qsᵀ)_o
		if prior == nil {
			for u, g := range gRow {
				gRow[u] = -2*g + h
			}
		} else {
			// dD_p = Diag(dQ·p): the h term picks up the prior weight.
			for u, g := range gRow {
				gRow[u] = -2*g + h*prior[u]
			}
		}
	}
	return obj, nil
}
