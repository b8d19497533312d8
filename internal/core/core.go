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
	"slices"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Options configures Optimize. The zero value requests the paper's defaults:
// m = 4n outputs, random initialization, automatic step-size search, and 500
// iterations.
type Options struct {
	// Outputs sets m (default 4n; Section 4 reports m = 4n as the empirical
	// sweet spot).
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
	// OnIteration, when non-nil, observes (iteration, objective) pairs: once
	// per accepted iteration of the main run, in order. When the main run
	// resumes the winning step-size pilot, the pilot's iterations are
	// delivered first, back to back, before the run continues.
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
		out.Outputs = 4 * n
	}
	if out.Iters <= 0 {
		out.Iters = 500
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
	// are full (short) descents over the same (m, n) shape, so sharing drops
	// three Workspace allocations — the dominant transient memory of an
	// auto-stepped optimize — per call, and it is what lets the main run
	// resume the last pilot instead of repeating it.
	m := o.Outputs
	if o.Init != nil {
		m = o.Init.Outputs()
	}
	return optimize(gram, eps, o, NewWorkspace(m, n))
}

// optimize is OptimizeGram on a workspace of the run's shape: the step-size
// search when o asks for it, then the main run to o.Iters.
func optimize(gram *linalg.Matrix, eps float64, o Options, ws *Workspace) (*Result, error) {
	beta := o.StepSize
	var d *descent
	if beta <= 0 {
		var err error
		if beta, d, err = searchStepSize(gram, eps, o, ws); err != nil {
			return nil, err
		}
	}
	if d.resumable(o.Iters) {
		if err := d.resume(o); err != nil {
			return nil, err
		}
	} else {
		var err error
		if d, err = start(gram, eps, o, beta, ws); err != nil {
			return nil, err
		}
	}
	if err := d.advance(o.Iters); err != nil {
		return nil, err
	}
	return d.result(), nil
}

// pilotIters is the length of one step-size pilot.
const pilotIters = 40

// searchStepSize runs short pilot descents over a multiplicative grid around
// a scale-aware base step and returns the best performer's step, mirroring
// the paper's hyper-parameter search ("only running the algorithm for a few
// iterations in this phase, then running it longer once a step size is
// chosen"). A step size of zero asks start to self-scale from the first
// gradient, so the pilot grid multiplies that adaptive base. The winning
// descent comes back too when it was the last pilot run, so its state is
// still on ws; nil otherwise.
func searchStepSize(gram *linalg.Matrix, eps float64, o Options, ws *Workspace) (float64, *descent, error) {
	grid := []float64{0.1, 1, 10}
	best, bestObj := 0.0, math.Inf(1)
	var winner *descent
	pilot := o
	// Pilot iterations are an implementation detail: observers see only the
	// main run's monotone iteration stream. Cancellation still applies —
	// advance checks Ctx every iteration.
	pilot.OnIteration = nil
	var pilotErr error
	for _, g := range grid {
		if err := ctxErr(o.Ctx); err != nil {
			return 0, nil, err
		}
		// Starting a pilot overwrites the previous one's state on ws.
		winner = nil
		d, err := start(gram, eps, pilot, -g, ws)
		if err == nil {
			err = d.advance(pilotIters)
		}
		if err != nil {
			pilotErr = err
			continue
		}
		if d.bestObj < bestObj {
			bestObj, best, winner = d.bestObj, d.beta, d
		}
	}
	if err := ctxErr(o.Ctx); err != nil {
		return 0, nil, err
	}
	if math.IsInf(bestObj, 1) {
		if pilotErr != nil {
			// Every pilot failed: say why (a bad prior, a warm start of the
			// wrong domain, an M singular at initialization) rather than
			// only that the search came up empty.
			return 0, nil, fmt.Errorf("core: step-size search failed for every candidate: %w", pilotErr)
		}
		return 0, nil, errors.New("core: step-size search failed for every candidate")
	}
	return best, winner, nil
}

// descent is one run of the projected gradient descent over the Workspace it
// owns: start initializes it, advance runs it to an iteration count, result
// reads the best iterate off it. The step-size pilots, a fixed-step run and
// the main run are all descents, and advance is the one iteration loop. All
// per-iteration state lives in the Workspace, so steady-state iterations
// allocate nothing (see Workspace for the scratch contract); a descent
// started on a workspace overwrites whatever descent ran there before.
type descent struct {
	gram  *linalg.Matrix
	eps   float64
	o     Options // advance reads OnIteration and Ctx
	ws    *Workspace
	prior []float64

	// proj holds the current iterate q = proj.Q and the clip pattern that
	// produced it; grad is ∇L at q. projNext and gradNext are the candidate
	// step's, swapped in when it is accepted.
	proj, projNext *opt.MatrixProjection
	grad, gradNext *linalg.Matrix

	obj, bestObj, lastCheck float64
	beta                    float64
	halved                  bool // β was halved (blow-up safeguard or stall decay)
	failures, decays        int
	stopped                 bool // gave up after repeated failures or decays
	t                       int  // iterations performed
	history                 []float64
}

// zFloor keeps every bound z_o strictly positive.
const zFloor = 1e-12

// start initializes a descent on ws (shaped m×n for the run) with step beta;
// a non-positive beta is scaled from the first gradient, see below.
func start(gram *linalg.Matrix, eps float64, o Options, beta float64, ws *Workspace) (*descent, error) {
	n, m := gram.Rows(), ws.m
	d := &descent{gram: gram, eps: eps, o: o, ws: ws,
		proj: &ws.proj, projNext: &ws.projNext, grad: ws.grad, gradNext: ws.gradNext}

	// Initialization (Section 4): z = (1+e^−ε)/(2m)·1 — equal to the paper's
	// (1+e^−ε)/(8n) at the default m = 4n, and keeping Σz strictly inside
	// (e^−ε, 1) for any m — and Q = Π_{z,ε}(R) with R ~ U[0,1]^{m×n}; or a
	// caller-provided warm start. R is written where its projection lands.
	r := d.projNext.Q
	if o.Init != nil {
		if o.Init.Domain() != n {
			return nil, fmt.Errorf("core: init strategy domain %d, want %d", o.Init.Domain(), n)
		}
		r.CopyFrom(o.Init.Q)
	} else {
		rng := rand.New(rand.NewSource(o.Seed))
		for i := range r.Data() {
			r.Data()[i] = rng.Float64()
		}
	}
	// The momentum recurrences read their previous value before writing; a
	// reused workspace must start them at zero like a fresh one.
	ws.velQ.Scale(0)
	clear(ws.velZ)
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
	d.prior = prior

	opt.FeasibleZ(z, eps, zFloor)
	if err := d.project(z); err != nil {
		return nil, fmt.Errorf("core: initial projection: %w", err)
	}
	d.proj, d.projNext = d.projNext, d.proj
	q := d.proj.Q
	obj, err := ws.ObjectiveGrad(q, gram, prior, d.grad)
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
		g := d.grad.MaxAbs()
		if g == 0 {
			g = 1
		}
		beta = mult * 0.1 * q.MaxAbs() / g
	}
	d.beta = beta
	d.obj, d.bestObj, d.lastCheck = obj, obj, obj
	ws.bestQ.CopyFrom(q)
	d.history = []float64{obj}
	return d, nil
}

// project replaces projNext.Q — a start or a step, written there by the
// caller — with its projection onto the bounded simplex under bound z
// (Algorithm 1), in place.
func (d *descent) project(z []float64) error {
	return opt.ProjectMatrixInto(d.projNext, &d.ws.scratch, d.projNext.Q, z, d.eps)
}

// resumable reports whether a main run of iters iterations may resume the
// winning pilot d (nil when the winner's state is no longer on the
// workspace) instead of restarting from its step. The pilot's iterations are
// the main run's first pilotIters, bit for bit, when it never halved β (the
// restart begins at the pilot's final β, and a halving is the only thing
// that separates the two trajectories) and the main run is at least that
// long. The stall check first acts at iteration checkEvery > pilotIters, so
// from there only the observer differs.
func (d *descent) resumable(iters int) bool {
	return d != nil && !d.halved && iters >= pilotIters
}

// resume hands a finished pilot to the main run: the caller's options from
// here on, and the pilot's iterations replayed to the observer from History
// (a pilot that never halved β accepted every one of them), checking Ctx
// before each callback as advance does.
func (d *descent) resume(o Options) error {
	d.o = o
	if o.OnIteration == nil {
		return nil
	}
	for t, obj := range d.history[1:] {
		if err := ctxErr(o.Ctx); err != nil {
			return err
		}
		o.OnIteration(t, obj)
	}
	return nil
}

// advance runs the descent until it has performed iters iterations or
// stopped on its own.
func (d *descent) advance(iters int) error {
	ws := d.ws
	if iters > d.t {
		d.history = slices.Grow(d.history, iters-d.t)
	}
	e := math.Exp(d.eps)
	z, gz, newZ := ws.z, ws.gz, ws.newZ
	// Heavy-ball momentum accelerates traversal of the long, flat valleys the
	// projected objective exhibits; the best-iterate tracking keeps the
	// returned strategy monotone in quality even when momentum overshoots.
	const momentum = 0.9
	velQ, velZ := ws.velQ, ws.velZ
	for !d.stopped && d.t < iters {
		if err := ctxErr(d.o.Ctx); err != nil {
			return err
		}
		t := d.t
		// ∇z via back-propagation through the projection that produced q.
		gradZ(gz, ws.freeMean, d.grad, d.proj.State, d.proj.NumFree, e)

		// One projected-gradient step with constant step sizes, exactly as in
		// Algorithm 2: the objective is allowed to fluctuate (no line search),
		// which lets the iterates traverse shallow barriers; the best iterate
		// seen is tracked and returned. β is only reduced as a safeguard when
		// the step lands on a singular/blow-up point.
		alpha := d.beta / (float64(ws.n) * e) // the paper's smaller z step
		for i := range velZ {
			velZ[i] = momentum*velZ[i] + gz[i]
		}
		copy(newZ, z)
		linalg.AxpyVec(-alpha, velZ, newZ)
		linalg.ClipScalar(newZ, 0, 1)
		opt.FeasibleZ(newZ, d.eps, zFloor)

		velQ.Scale(momentum).AddScaled(1, d.grad)
		step := d.projNext.Q
		step.CopyFrom(d.proj.Q)
		step.AddScaled(-d.beta, velQ)
		err := d.project(newZ)
		var newObj float64
		if err == nil {
			newObj, err = ws.ObjectiveGrad(d.projNext.Q, d.gram, d.prior, d.gradNext)
		}
		if err != nil || math.IsNaN(newObj) || newObj > 50*d.bestObj {
			// Blow-up safeguard: shrink the step, drop momentum, and retry
			// from the current iterate. Give up after repeated failures.
			d.beta /= 2
			d.halved = true
			velQ.Scale(0)
			clear(velZ)
			d.failures++
			if d.failures > 60 {
				d.stopped = true
				break
			}
			d.t++
			d.history = append(d.history, d.obj)
			continue
		}
		d.failures = 0
		d.proj, d.projNext = d.projNext, d.proj
		d.grad, d.gradNext = d.gradNext, d.grad
		copy(z, newZ)
		d.obj = newObj
		if d.obj < d.bestObj {
			d.bestObj = d.obj
			ws.bestQ.CopyFrom(d.proj.Q)
		}

		d.t++
		d.history = append(d.history, d.obj)
		if d.o.OnIteration != nil {
			d.o.OnIteration(t, d.obj)
		}
		if d.t%checkEvery == 0 {
			if d.lastCheck-d.bestObj <= stallTol*math.Abs(d.lastCheck) {
				// Stalled: decay the step ("smaller step sizes typically work
				// better in later iterations", Section 4) and keep going; stop
				// only after repeated fruitless decays.
				d.beta /= 2
				d.halved = true
				d.decays++
				d.stopped = d.decays > 8
			} else {
				d.decays = 0
			}
			d.lastCheck = d.bestObj
		}
	}
	return nil
}

// checkEvery is the stall-check period, in iterations.
const checkEvery = 50

// stallTol is the stall check's bound: when the best objective improved by
// no more than stallTol relative to the last check, checkEvery iterations
// ago, β is halved, and nine halvings in a row stop the run.
const stallTol = 1e-8

// result reads the descent's outcome off it. The Strategy aliases the
// workspace's best-iterate buffer, so the workspace must not start another
// descent once a result has escaped to a caller.
func (d *descent) result() *Result {
	return &Result{
		Strategy:     strategy.New(d.ws.bestQ, d.eps),
		Objective:    d.bestObj,
		History:      d.history,
		Iters:        d.t,
		StepSize:     d.beta,
		PriorWeights: d.prior,
	}
}

// OptimizeBest runs Optimize from the paper's random initialization and then
// considers warm starts: any candidate strategy (typically the competitor
// mechanisms' strategy matrices) whose objective — the one the run minimizes,
// L_p under o.Prior's weights when one is set — beats the random-init result
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
		// A warm start is a point the run has to stand on: every output
		// with mass and an M_p that factors. (Objective alone would score a
		// rank-deficient candidate through the pseudo-inverse.) It is scored
		// by what the run minimizes — L_p under the run's prior weights —
		// so it is comparable with best.Objective.
		if nf.Form(cand.Q, best.PriorWeights) != nil {
			continue
		}
		obj, err := cand.Objective(gram, best.PriorWeights)
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
