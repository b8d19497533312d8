package opt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Operator is an implicit linear operator with its adjoint, as implemented by
// workload.Workload. NNLS and power iteration only touch W through these two
// products, so workloads with huge explicit forms (AllRange) stay cheap.
type Operator interface {
	// MatVec returns W·x.
	MatVec(x []float64) []float64
	// TMatVec returns Wᵀ·y.
	TMatVec(y []float64) []float64
	// Domain returns the number of columns of W.
	Domain() int
	// Queries returns the number of rows of W.
	Queries() int
}

// PowerIteration estimates the largest eigenvalue of WᵀW (the squared
// spectral norm of W) by power iteration on x ↦ Wᵀ(Wx). It runs iters steps
// from a fixed pseudo-random start; 30–50 iterations give the 2–3 digits the
// NNLS step size needs.
func PowerIteration(op Operator, iters int, seed int64) float64 {
	n := op.Domain()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	nrm := linalg.Norm2(x)
	if nrm == 0 {
		x[0] = 1
		nrm = 1
	}
	linalg.ScaleVec(1/nrm, x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		y := op.TMatVec(op.MatVec(x))
		lambda = linalg.Dot(x, y)
		nrm = linalg.Norm2(y)
		if nrm == 0 {
			return 0
		}
		linalg.ScaleVec(1/nrm, y)
		x = y
	}
	return lambda
}

// NNLSOptions configures the non-negative least squares solver.
type NNLSOptions struct {
	// MaxIters bounds the number of FISTA iterations (default 500).
	MaxIters int
	// Tol stops when the relative change of the objective falls below it
	// (default 1e-9).
	Tol float64
	// X0 optionally seeds the solution (clipped to ≥ 0); nil starts at zero.
	X0 []float64
}

// NNLSResult reports the solution and convergence diagnostics.
type NNLSResult struct {
	// X is the non-negative minimizer found.
	X []float64
	// Objective is ‖Wx − b‖² at X.
	Objective float64
	// Iters is the number of iterations performed.
	Iters int
	// Converged reports whether the tolerance was met before MaxIters.
	Converged bool
}

// NNLS solves min_{x ≥ 0} ‖W·x − b‖² using FISTA (accelerated projected
// gradient) with gradient-based adaptive restart. The Lipschitz constant of
// the gradient is 2·λ_max(WᵀW), estimated by power iteration.
//
// The paper's Appendix A solves this with scipy's L-BFGS; FISTA solves the
// same convex program to tolerance (the program is convex, so any convergent
// first-order method reaches the same objective value).
func NNLS(op Operator, b []float64, o NNLSOptions) (*NNLSResult, error) {
	if len(b) != op.Queries() {
		return nil, fmt.Errorf("opt: NNLS rhs length %d, want %d", len(b), op.Queries())
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	n := op.Domain()
	lmax := PowerIteration(op, 40, 1)
	if lmax <= 0 {
		// W is (numerically) zero: any feasible x is optimal; return zero.
		return &NNLSResult{X: make([]float64, n), Objective: linalg.Dot(b, b), Converged: true}, nil
	}
	step := 1 / (2 * lmax * 1.01) // slight shrink for the estimate's error

	x := make([]float64, n)
	if o.X0 != nil {
		if len(o.X0) != n {
			return nil, fmt.Errorf("opt: NNLS X0 length %d, want %d", len(o.X0), n)
		}
		copy(x, o.X0)
		for i := range x {
			if x[i] < 0 {
				x[i] = 0
			}
		}
	}
	y := linalg.CloneVec(x)
	t := 1.0

	obj := func(v []float64) float64 {
		r := op.MatVec(v)
		for i := range r {
			r[i] -= b[i]
		}
		return linalg.Dot(r, r)
	}
	prevObj := obj(x)
	res := &NNLSResult{}
	for it := 0; it < o.MaxIters; it++ {
		res.Iters = it + 1
		// ∇f(y) = 2Wᵀ(Wy − b)
		r := op.MatVec(y)
		for i := range r {
			r[i] -= b[i]
		}
		g := op.TMatVec(r)
		linalg.ScaleVec(2, g)

		xNew := make([]float64, n)
		for i := range xNew {
			v := y[i] - step*g[i]
			if v < 0 {
				v = 0
			}
			xNew[i] = v
		}
		// Gradient restart: if the momentum direction opposes the gradient
		// step, reset acceleration (O'Donoghue–Candès).
		restart := 0.0
		for i := range xNew {
			restart += (y[i] - xNew[i]) * (xNew[i] - x[i])
		}
		if restart > 0 {
			t = 1
			copy(y, xNew)
		} else {
			tNew := (1 + math.Sqrt(1+4*t*t)) / 2
			beta := (t - 1) / tNew
			for i := range y {
				y[i] = xNew[i] + beta*(xNew[i]-x[i])
				if y[i] < 0 {
					y[i] = 0
				}
			}
			t = tNew
		}
		x = xNew

		if (it+1)%10 == 0 || it == o.MaxIters-1 {
			cur := obj(x)
			if math.Abs(prevObj-cur) <= o.Tol*(1+math.Abs(prevObj)) {
				res.Converged = true
				prevObj = cur
				break
			}
			prevObj = cur
		}
	}
	res.X = x
	res.Objective = obj(x)
	return res, nil
}
