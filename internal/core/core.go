// Package core implements the paper's primary contribution: strategy
// optimization for the workload factorization mechanism (Section 4,
// Algorithm 2).
//
// Given a workload W (through its Gram matrix G = WᵀW) and a privacy budget
// ε, it solves Problem 3.12,
//
//	minimize_{Q,z}  L(Q) = tr[(QᵀD⁻¹Q)⁺ G],  D = Diag(Q·1)
//	subject to      Qᵀ1 = 1,  0 ≤ z ≤ qᵤ ≤ e^ε·z,
//
// by projected gradient descent: each iteration takes a gradient step on the
// auxiliary bound vector z and on Q, then projects Q's columns back onto the
// bounded probability simplex (Algorithm 1, internal/opt).
//
// The paper computes gradients with autograd; here they are derived
// analytically (and cross-checked in tests against finite differences and the
// reverse-mode tape in internal/autodiff):
//
//	With M = QᵀD⁻¹Q, S = M⁻¹ G M⁻¹, Qs = D⁻¹Q, Γ = Qs·S (m×n), and
//	h = diag(Qs·S·Qsᵀ):
//	    ∂L/∂Q_{ou} = −2·Γ_{ou} + h_o,
//
// where the h term is the contribution of D's dependence on Q. The gradient
// with respect to z back-propagates ∂L/∂Q through the projection using its
// clip pattern: a coordinate clipped at c·z_o (c ∈ {1, e^ε}) passes gradient
// c·(g_{ou} − mean over the column's free coordinates of g), the mean term
// coming from λᵤ's dependence on z.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Options configures Optimize. The zero value requests the paper's defaults:
// m = 4n outputs, random initialization, automatic step-size search, and 500
// iterations.
type Options struct {
	// OutputFactor sets m = OutputFactor·n (default 4; Section 4 reports
	// m = 4n as the empirical sweet spot). Ignored when Outputs > 0.
	OutputFactor int
	// Outputs sets m explicitly.
	Outputs int
	// Iters bounds the number of projected-gradient iterations (default 500).
	Iters int
	// StepSize is the Q step size β. Zero requests an automatic search over a
	// logarithmic grid (short pilot runs), matching the paper's
	// hyper-parameter search.
	StepSize float64
	// Seed drives the random initialization (and the pilot runs).
	Seed int64
	// Init optionally seeds Q from an existing strategy (e.g. a baseline
	// mechanism, for the warm-start ablation). It must have Eps ≤ the target
	// ε and column count n. When nil, the random initialization of Section 4
	// is used.
	Init *strategy.Strategy
	// Tol stops early when the relative objective improvement over 25
	// iterations falls below it (default 1e-8).
	Tol float64
	// OnIteration, when non-nil, observes (iteration, objective) pairs.
	OnIteration func(iter int, objective float64)
	// Prior, when non-nil, optimizes the prior-weighted expected loss
	// Σᵤ pᵤ·var(u) instead of the uniform average (the paper's footnote 2).
	// It is normalized internally and smoothed with a small uniform component
	// so that no user type has exactly zero weight. Length must be n.
	Prior []float64
	// Ctx, when non-nil, cancels the optimization: the projected-gradient
	// loop (and the step-size pilot runs) check it every iteration and return
	// ctx.Err() promptly after cancellation or deadline expiry.
	Ctx context.Context
}

func (o *Options) withDefaults(n int) Options {
	out := *o
	if out.Outputs <= 0 {
		f := out.OutputFactor
		if f <= 0 {
			f = 4
		}
		out.Outputs = f * n
	}
	if out.Iters <= 0 {
		out.Iters = 500
	}
	if out.Tol <= 0 {
		out.Tol = 1e-8
	}
	return out
}

// Result is the outcome of strategy optimization.
type Result struct {
	// Strategy is the optimized ε-LDP strategy matrix.
	Strategy *strategy.Strategy
	// Objective is the final L(Q) value (Theorem 3.11).
	Objective float64
	// History records the objective at every accepted iteration.
	History []float64
	// Iters is the number of iterations performed.
	Iters int
	// StepSize is the β actually used (after automatic search).
	StepSize float64
	// PriorWeights is the normalized, smoothed prior the objective used
	// (nil for the uniform objective); pass it to
	// mechanism.NewFactorizationWithPrior so deployment uses the same
	// weighted reconstruction the optimization assumed.
	PriorWeights []float64
}

// Optimize runs Algorithm 2 for the given workload and privacy budget and
// returns an optimized strategy. The workload enters only through its Gram
// matrix, so arbitrarily large implicit workloads are supported.
func Optimize(w workload.Workload, eps float64, options Options) (*Result, error) {
	return OptimizeGram(w.Gram(), eps, options)
}

// OptimizeGram is Optimize for a precomputed Gram matrix G = WᵀW.
func OptimizeGram(gram *linalg.Matrix, eps float64, options Options) (*Result, error) {
	n := gram.Rows()
	if gram.Cols() != n {
		return nil, fmt.Errorf("core: Gram matrix is %dx%d, want square", gram.Rows(), gram.Cols())
	}
	if n == 0 {
		return nil, errors.New("core: empty domain")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("core: privacy budget must be positive, got %g", eps)
	}
	o := options.withDefaults(n)

	// One workspace serves the step-size pilots and the main run: the pilots
	// are full (short) optimizations over the same (m, n) shape, so sharing
	// drops three Workspace allocations — the dominant transient memory of an
	// auto-stepped optimize — per call. run re-zeroes the state it assumes
	// zero-initialized (the momentum buffers) on entry.
	m := o.Outputs
	if o.Init != nil {
		m = o.Init.Outputs()
	}
	ws := NewWorkspace(m, n)

	beta := o.StepSize
	if beta <= 0 {
		var err error
		beta, err = searchStepSize(gram, eps, o, ws)
		if err != nil {
			return nil, err
		}
	}
	return run(gram, eps, o, beta, o.Iters, ws)
}

// searchStepSize runs short pilot optimizations over a multiplicative grid
// around a scale-aware base step and returns the best performer, mirroring the
// paper's hyper-parameter search ("only running the algorithm for a few
// iterations in this phase, then running it longer once a step size is
// chosen"). A step size of zero asks run to self-scale from the first
// gradient, so the pilot grid multiplies that adaptive base.
func searchStepSize(gram *linalg.Matrix, eps float64, o Options, ws *Workspace) (float64, error) {
	grid := []float64{0.1, 1, 10}
	best, bestObj := 0.0, math.Inf(1)
	pilot := o
	pilot.Tol = 1e-12
	// Pilot iterations are an implementation detail: observers see only the
	// main run's monotone iteration stream. Cancellation still applies — run
	// checks Ctx every iteration.
	pilot.OnIteration = nil
	var pilotErr error
	for _, g := range grid {
		if err := ctxErr(o.Ctx); err != nil {
			return 0, err
		}
		res, err := run(gram, eps, pilot, -g, 40, ws)
		if err != nil {
			pilotErr = err
			continue
		}
		if res.Objective < bestObj {
			bestObj = res.Objective
			best = res.StepSize
		}
	}
	if err := ctxErr(o.Ctx); err != nil {
		return 0, err
	}
	if math.IsInf(bestObj, 1) {
		if pilotErr != nil {
			// Every pilot failed: say why (a bad prior, a warm start of the
			// wrong domain, an M singular at initialization) rather than
			// only that the search came up empty.
			return 0, fmt.Errorf("core: step-size search failed for every candidate: %w", pilotErr)
		}
		return 0, errors.New("core: step-size search failed for every candidate")
	}
	return best, nil
}

// run executes the projected gradient descent loop. All per-iteration state
// lives in a Workspace sized once up front, so steady-state iterations
// allocate nothing (see Workspace for the scratch contract). A caller-shared
// workspace (the step-size pilots and the main run reuse one) is used when
// its shape matches; run owns re-zeroing the momentum buffers, the only
// state it assumes starts at zero. Note the returned Result's Strategy
// aliases the workspace's best-iterate buffer, so a workspace must not be
// reused after the run whose Result escapes to a caller.
func run(gram *linalg.Matrix, eps float64, o Options, beta float64, iters int, ws *Workspace) (*Result, error) {
	n := gram.Rows()
	m := o.Outputs
	e := math.Exp(eps)
	rng := rand.New(rand.NewSource(o.Seed))

	// Initialization (Section 4): z = (1+e^−ε)/(2m)·1 — equal to the paper's
	// (1+e^−ε)/(8n) at the default m = 4n, and keeping Σz strictly inside
	// (e^−ε, 1) for any m — and Q = Π_{z,ε}(R) with R ~ U[0,1]^{m×n}; or a
	// caller-provided warm start.
	var r *linalg.Matrix
	if o.Init != nil {
		if o.Init.Domain() != n {
			return nil, fmt.Errorf("core: init strategy domain %d, want %d", o.Init.Domain(), n)
		}
		m = o.Init.Outputs()
		r = o.Init.Q.Clone()
	} else {
		r = linalg.New(m, n)
		for i := range r.Data() {
			r.Data()[i] = rng.Float64()
		}
	}
	if ws == nil || ws.m != m || ws.n != n {
		ws = NewWorkspace(m, n)
	} else {
		// The momentum recurrences read their previous value before writing;
		// a reused workspace must start them at zero like a fresh one.
		ws.velQ.Scale(0)
		clear(ws.velZ)
	}
	z := ws.z
	for i := range z {
		z[i] = (1 + math.Exp(-eps)) / (2 * float64(m))
	}
	if o.Init != nil {
		// Warm start z at the row minima of the init strategy so the init is
		// (close to) a fixed point of the projection.
		for i := 0; i < m; i++ {
			z[i] = linalg.MinVec(r.Row(i))
		}
	}
	prior, err := normalizePrior(o.Prior, n)
	if err != nil {
		return nil, err
	}

	zFloor := 1e-12
	opt.FeasibleZ(z, eps, zFloor)
	proj, projNext := &ws.proj, &ws.projNext
	if err := opt.ProjectMatrixInto(proj, &ws.scratch, r, z, eps); err != nil {
		return nil, fmt.Errorf("core: initial projection: %w", err)
	}
	q := proj.Q

	grad, gradNext := ws.grad, ws.gradNext
	obj, err := ws.ObjectiveGrad(q, gram, prior, grad)
	if err != nil {
		return nil, fmt.Errorf("core: initial objective: %w", err)
	}

	// A non-positive beta requests a scale-aware default: step |beta|·(typical
	// Q entry)/(typical gradient entry), so the first trial step perturbs Q by
	// roughly |beta|·10% of its magnitude regardless of workload scale.
	if beta <= 0 {
		mult := 1.0
		if beta < 0 {
			mult = -beta
		}
		g := grad.MaxAbs()
		if g == 0 {
			g = 1
		}
		beta = mult * 0.1 * q.MaxAbs() / g
	}

	res := &Result{History: make([]float64, 0, iters+1)}
	res.History = append(res.History, obj)

	bestQ := ws.bestQ
	bestQ.CopyFrom(q)
	bestObj := obj

	gz := ws.gz
	newZ := ws.newZ
	// Heavy-ball momentum accelerates traversal of the long, flat valleys the
	// projected objective exhibits; the best-iterate tracking keeps the
	// returned strategy monotone in quality even when momentum overshoots.
	const momentum = 0.9
	velQ := ws.velQ
	velZ := ws.velZ
	const checkEvery = 50
	lastCheck := bestObj
	failures := 0
	decays := 0

	for t := 0; t < iters; t++ {
		if err := ctxErr(o.Ctx); err != nil {
			return nil, err
		}
		// ∇z via back-propagation through the projection that produced q.
		gradZ(gz, ws.freeMean, grad, proj.State, proj.NumFree, e)

		// One projected-gradient step with constant step sizes, exactly as in
		// Algorithm 2: the objective is allowed to fluctuate (no line search),
		// which lets the iterates traverse shallow barriers; the best iterate
		// seen is tracked and returned. β is only reduced as a safeguard when
		// the step lands on a singular/blow-up point.
		alpha := beta / (float64(n) * e) // the paper's smaller z step
		for i := range velZ {
			velZ[i] = momentum*velZ[i] + gz[i]
		}
		copy(newZ, z)
		linalg.AxpyVec(-alpha, velZ, newZ)
		linalg.ClipScalar(newZ, 0, 1)
		opt.FeasibleZ(newZ, eps, zFloor)

		velQ.Scale(momentum).AddScaled(1, grad)
		cand := ws.cand
		cand.CopyFrom(q)
		cand.AddScaled(-beta, velQ)
		err := opt.ProjectMatrixInto(projNext, &ws.scratch, cand, newZ, eps)
		var newObj float64
		if err == nil {
			newObj, err = ws.ObjectiveGrad(projNext.Q, gram, prior, gradNext)
		}
		if err != nil || math.IsNaN(newObj) || newObj > 50*bestObj {
			// Blow-up safeguard: shrink the step, drop momentum, and retry
			// from the current iterate. Give up after repeated failures.
			beta /= 2
			velQ.Scale(0)
			clear(velZ)
			failures++
			if failures > 60 {
				break
			}
			res.Iters = t + 1
			res.History = append(res.History, obj)
			continue
		}
		failures = 0
		proj, projNext = projNext, proj
		grad, gradNext = gradNext, grad
		q = proj.Q
		copy(z, newZ)
		obj = newObj
		if obj < bestObj {
			bestObj = obj
			bestQ.CopyFrom(q)
		}

		res.Iters = t + 1
		res.History = append(res.History, obj)
		if o.OnIteration != nil {
			o.OnIteration(t, obj)
		}
		if (t+1)%checkEvery == 0 {
			if lastCheck-bestObj <= o.Tol*math.Abs(lastCheck) {
				// Stalled: decay the step ("smaller step sizes typically work
				// better in later iterations", Section 4) and keep going; stop
				// only after repeated fruitless decays.
				beta /= 2
				decays++
				if decays > 8 {
					break
				}
			} else {
				decays = 0
			}
			lastCheck = bestObj
		}
	}

	res.Strategy = strategy.New(bestQ, eps)
	res.Objective = bestObj
	res.StepSize = beta
	res.PriorWeights = prior
	return res, nil
}

// OptimizeBest runs Optimize from the paper's random initialization and then
// considers warm starts: any candidate strategy (typically the competitor
// mechanisms' strategy matrices) whose objective beats the random-init result
// triggers a warm-started re-run (Section 4: initializing from an existing
// mechanism means "the optimized strategy will never be worse than the other
// mechanisms"). The best result overall is returned, so the optimized
// mechanism provably dominates every supplied factorization baseline in
// average-case variance.
func OptimizeBest(w workload.Workload, eps float64, o Options, candidates ...*strategy.Strategy) (*Result, error) {
	gram := w.Gram()
	best, err := OptimizeGram(gram, eps, o)
	if err != nil {
		return nil, err
	}
	var warmFrom *strategy.Strategy
	warmObj := best.Objective
	var nf strategy.NormalForm
	for _, cand := range candidates {
		if cand == nil || cand.Domain() != gram.Rows() || cand.Eps > eps+1e-12 {
			continue
		}
		// A warm start is a point run has to stand on: every output with
		// mass and an M that factors. (Objective alone would score a
		// rank-deficient candidate through the pseudo-inverse.)
		if nf.Form(cand.Q, nil) != nil {
			continue
		}
		obj, err := cand.Objective(gram)
		if err != nil {
			continue
		}
		if obj < warmObj {
			warmObj = obj
			warmFrom = cand
		}
	}
	if warmFrom == nil {
		return best, nil
	}
	if err := ctxErr(o.Ctx); err != nil {
		return nil, err
	}
	wo := o
	wo.Init = warmFrom
	warm, warmErr := OptimizeGram(gram, eps, wo)
	// A strategy valid at ε′ ≤ ε is valid at ε.
	candidate := &Result{
		Strategy:     strategy.New(warmFrom.Q, eps),
		Objective:    warmObj,
		History:      []float64{warmObj},
		PriorWeights: best.PriorWeights,
	}
	return pickBest(best, warm, warmErr, candidate), nil
}

// pickBest chooses among the random-init result, the run warm-started from
// the best candidate (nil with warmErr set when it failed) and that candidate
// itself, by objective. The warm run returns its best iterate, its own start
// included, so where it beat random it is the candidate or better (up to the
// round-off of projecting the start) and wins; where it did not — it failed,
// or projecting the candidate cost more than random's margin — the candidate
// as supplied still beats random when its objective does.
func pickBest(random, warm *Result, warmErr error, candidate *Result) *Result {
	switch {
	case warmErr == nil && warm.Objective < random.Objective:
		return warm
	case candidate.Objective < random.Objective:
		return candidate
	}
	return random
}

// ctxErr reports a cancelled or expired context (nil context = never).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// normalizePrior validates, smooths, and scales a prior to sum to n (so the
// uniform prior coincides with the unweighted objective). A nil prior stays
// nil (fast path).
func normalizePrior(prior []float64, n int) ([]float64, error) {
	if prior == nil {
		return nil, nil
	}
	if len(prior) != n {
		return nil, fmt.Errorf("core: prior has %d entries, domain is %d", len(prior), n)
	}
	total := 0.0
	for u, v := range prior {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: prior[%d] = %g is invalid", u, v)
		}
		total += v
	}
	if total <= 0 {
		return nil, errors.New("core: prior has no mass")
	}
	const smooth = 1e-3 // keep every type reachable so D_p stays invertible
	out := make([]float64, n)
	for u, v := range prior {
		out[u] = float64(n) * ((1-smooth)*v/total + smooth/float64(n))
	}
	return out, nil
}

// gradZ back-propagates the Q gradient through the projection's clip pattern
// into gz (length m). See the package comment for the derivation. Both passes
// walk grad and state row-major: the first leaves in mean (scratch, length n)
// each column's mean gradient over its free coordinates (the λᵤ coupling; rows
// ascending per column), the second sums row o's clipped entries (columns
// ascending) into gz[o].
func gradZ(gz, mean []float64, grad *linalg.Matrix, state []opt.ClipState, numFree []int, e float64) {
	m, n := grad.Rows(), grad.Cols()
	clear(mean)
	for o := 0; o < m; o++ {
		st := state[o*n : (o+1)*n]
		for u, g := range grad.Row(o) {
			if st[u] == opt.Free {
				mean[u] += g
			}
		}
	}
	for u, free := range numFree {
		if free > 0 {
			mean[u] /= float64(free)
		}
	}
	for o := 0; o < m; o++ {
		st := state[o*n : (o+1)*n]
		sum := 0.0
		for u, g := range grad.Row(o) {
			switch st[u] {
			case opt.ClipLow:
				sum += g - mean[u]
			case opt.ClipHigh:
				sum += e * (g - mean[u])
			}
		}
		gz[o] = sum
	}
}
