package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestOptimizeCancellation: a cancelled context aborts the projected-gradient
// loop (and the pilot step-size search) with ctx.Err, and a pre-cancelled
// context aborts before any iteration runs.
func TestOptimizeCancellation(t *testing.T) {
	w := workload.NewPrefix(8)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(w, 1.0, Options{Iters: 100, Ctx: pre}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	iters := 0
	_, err := Optimize(w, 1.0, Options{
		Iters: 100000,
		Seed:  3,
		Ctx:   ctx,
		OnIteration: func(iter int, obj float64) {
			iters++
			if iter == 2 {
				cancelMid()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err = %v, want context.Canceled", err)
	}
	if iters > 10 {
		t.Fatalf("cancellation took %d iterations to bite", iters)
	}

	// A deadline surfaces as DeadlineExceeded.
	dl, cancelDl := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelDl()
	if _, err := Optimize(w, 1.0, Options{Iters: 100, Ctx: dl}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// rrStrategy builds the randomized response strategy matrix (Example 2.7).
func rrStrategy(n int, eps float64) *strategy.Strategy {
	e := math.Exp(eps)
	q := linalg.New(n, n)
	denom := e + float64(n) - 1
	for o := 0; o < n; o++ {
		for u := 0; u < n; u++ {
			if o == u {
				q.Set(o, u, e/denom)
			} else {
				q.Set(o, u, 1/denom)
			}
		}
	}
	return strategy.New(q, eps)
}

// randPositive returns a random strictly positive m×n matrix with column sums
// near one (not necessarily feasible — the objective is defined for any
// positive matrix).
func randPositive(rng *rand.Rand, m, n int) *linalg.Matrix {
	q := linalg.New(m, n)
	for i := range q.Data() {
		q.Data()[i] = 0.05 + rng.Float64()
	}
	for u := 0; u < n; u++ {
		col := q.Col(u)
		s := linalg.Sum(col)
		for o := 0; o < m; o++ {
			q.Set(o, u, col[o]/s)
		}
	}
	return q
}

// TestGradientMatchesFiniteDifference is the central correctness test for the
// hand-derived analytic gradient.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, wk := range []workload.Workload{
		workload.NewHistogram(4),
		workload.NewPrefix(4),
		workload.NewAllRange(4),
	} {
		gram := wk.Gram()
		m, n := 9, 4
		q := randPositive(rng, m, n)
		obj, grad, err := objectiveGrad(q, gram, nil)
		if err != nil {
			t.Fatal(err)
		}
		if obj <= 0 {
			t.Fatalf("objective %v must be positive", obj)
		}
		const h = 1e-6
		for trial := 0; trial < 30; trial++ {
			o := rng.Intn(m)
			u := rng.Intn(n)
			qp := q.Clone()
			qp.Set(o, u, qp.At(o, u)+h)
			objP, _, err := objectiveGrad(qp, gram, nil)
			if err != nil {
				t.Fatal(err)
			}
			qm := q.Clone()
			qm.Set(o, u, qm.At(o, u)-h)
			objM, _, err := objectiveGrad(qm, gram, nil)
			if err != nil {
				t.Fatal(err)
			}
			fd := (objP - objM) / (2 * h)
			an := grad.At(o, u)
			if math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("%s: grad(%d,%d) analytic %v vs finite-diff %v", wk.Name(), o, u, an, fd)
			}
		}
	}
}

// TestGradZMatchesFiniteDifference validates the back-propagation through the
// projection: d/dz L(Π_{z,ε}(R)) at points where the clip pattern is stable.
func TestGradZMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 4, 10
	eps := 1.0
	gram := workload.NewPrefix(n).Gram()
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64()
	}
	z := linalg.Constant(m, (1+math.Exp(-eps))/(8*float64(n)))

	proj, err := opt.ProjectMatrix(r, z, eps)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := objectiveGrad(proj.Q, gram, nil)
	if err != nil {
		t.Fatal(err)
	}
	gz := make([]float64, m)
	gradZ(gz, make([]float64, n), grad, proj.State, proj.NumFree, math.Exp(eps))

	evalAt := func(zv []float64) float64 {
		p, err := opt.ProjectMatrix(r, zv, eps)
		if err != nil {
			t.Fatal(err)
		}
		obj, _, err := objectiveGrad(p.Q, gram, nil)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	const h = 1e-7
	for o := 0; o < m; o++ {
		zp := linalg.CloneVec(z)
		zp[o] += h
		zm := linalg.CloneVec(z)
		zm[o] -= h
		fd := (evalAt(zp) - evalAt(zm)) / (2 * h)
		if math.Abs(fd-gz[o]) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("∇z[%d]: analytic %v vs finite-diff %v", o, gz[o], fd)
		}
	}
}

func TestOptimizeProducesValidLDPStrategy(t *testing.T) {
	for _, eps := range []float64{0.5, 1.0, 2.0} {
		w := workload.NewPrefix(8)
		res, err := Optimize(w, eps, Options{Iters: 60, Seed: 1})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if err := res.Strategy.Validate(1e-7); err != nil {
			t.Fatalf("eps=%v: optimized strategy violates LDP: %v", eps, err)
		}
		if res.Strategy.Outputs() != 32 {
			t.Fatalf("m = %d, want 4n = 32", res.Strategy.Outputs())
		}
	}
}

func TestOptimizeDecreasesObjective(t *testing.T) {
	w := workload.NewPrefix(8)
	res, err := Optimize(w, 1.0, Options{Iters: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	if len(h) < 2 {
		t.Fatal("no iterations recorded")
	}
	// The iterates may fluctuate (constant-step PGD), but the returned
	// objective must be the best seen and a strict improvement on the init.
	if res.Objective >= h[0] {
		t.Fatalf("objective did not decrease: %v -> %v", h[0], res.Objective)
	}
	best := h[0]
	for _, v := range h {
		if v < best {
			best = v
		}
	}
	if math.Abs(res.Objective-best) > 1e-9*(1+best) {
		t.Fatalf("returned objective %v is not the best seen %v", res.Objective, best)
	}
	// And the returned strategy must actually achieve it.
	re, err := res.Strategy.Objective(workload.NewPrefix(8).Gram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re-res.Objective) > 1e-7*(1+re) {
		t.Fatalf("strategy objective %v != reported %v", re, res.Objective)
	}
}

// The headline claim at small scale: the optimized mechanism beats randomized
// response on every paper workload (for ε in the medium-privacy regime).
func TestOptimizedBeatsRandomizedResponse(t *testing.T) {
	n := 8
	eps := 1.0
	rr := rrStrategy(n, eps)
	for _, name := range workload.PaperWorkloads {
		w, err := workload.ByName(name, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(w, eps, Options{Iters: 300, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		optVar, err := res.Strategy.Variances(w.Gram(), w.Queries())
		if err != nil {
			t.Fatal(err)
		}
		rrVar, err := rr.Variances(w.Gram(), w.Queries())
		if err != nil {
			t.Fatal(err)
		}
		optSC := optVar.SampleComplexity(0.01)
		rrSC := rrVar.SampleComplexity(0.01)
		if optSC > rrSC*1.02 { // small slack for the stochastic optimizer
			t.Fatalf("%s: optimized sample complexity %v worse than RR %v", name, optSC, rrSC)
		}
	}
}

func TestOptimizeRespectsLowerBound(t *testing.T) {
	// Theorem 5.6: L(Q) ≥ (Σλᵢ)²/e^ε for every feasible Q.
	n := 8
	eps := 1.0
	for _, name := range []string{"Histogram", "Prefix", "Parity"} {
		w, err := workload.ByName(name, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(w, eps, Options{Iters: 150, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn, err := linalg.NuclearNormFromGram(w.Gram())
		if err != nil {
			t.Fatal(err)
		}
		bound := nn * nn / math.Exp(eps)
		if res.Objective < bound-1e-6*bound {
			t.Fatalf("%s: objective %v below SVD lower bound %v — impossible", name, res.Objective, bound)
		}
	}
}

func TestOptimizeWarmStart(t *testing.T) {
	// Warm-starting from randomized response must end at least as good as RR.
	n := 6
	eps := 1.0
	w := workload.NewHistogram(n)
	rr := rrStrategy(n, eps)
	rrObj, err := rr.Objective(w.Gram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(w, eps, Options{Iters: 100, Seed: 5, Init: rr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > rrObj+1e-9 {
		t.Fatalf("warm-started objective %v worse than init %v", res.Objective, rrObj)
	}
	if err := res.Strategy.Validate(1e-7); err != nil {
		t.Fatalf("warm-started strategy invalid: %v", err)
	}
}

func TestOptimizeFixedStepSize(t *testing.T) {
	w := workload.NewHistogram(5)
	res, err := Optimize(w, 1.0, Options{Iters: 40, Seed: 6, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepSize <= 0 {
		t.Fatal("step size not reported")
	}
	if err := res.Strategy.Validate(1e-7); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeCallback(t *testing.T) {
	w := workload.NewHistogram(4)
	calls := 0
	_, err := Optimize(w, 1.0, Options{Iters: 10, Seed: 7, StepSize: 1e-3,
		OnIteration: func(iter int, obj float64) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnIteration never invoked")
	}
}

func TestOptimizeErrors(t *testing.T) {
	w := workload.NewHistogram(4)
	if _, err := Optimize(w, 0, Options{}); err == nil {
		t.Fatal("expected error for ε = 0")
	}
	if _, err := Optimize(w, -1, Options{}); err == nil {
		t.Fatal("expected error for negative ε")
	}
	if _, err := OptimizeGram(linalg.New(3, 4), 1, Options{}); err == nil {
		t.Fatal("expected error for non-square Gram")
	}
	bad := rrStrategy(5, 1) // wrong domain for n=4 workload
	if _, err := Optimize(w, 1, Options{Init: bad}); err == nil {
		t.Fatal("expected error for mismatched init domain")
	}
}

func TestOptimizeOutputsOption(t *testing.T) {
	w := workload.NewHistogram(4)
	res, err := Optimize(w, 1.0, Options{Iters: 30, Seed: 8, Outputs: 10, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Outputs() != 10 {
		t.Fatalf("m = %d, want 10", res.Strategy.Outputs())
	}
}

// At large ε, randomized response is essentially optimal for Histogram
// (Section 6.2: "our mechanism matches randomized response" at low privacy).
// The optimizer must get within a modest factor of RR there.
func TestHighEpsilonNearRandomizedResponse(t *testing.T) {
	n := 6
	eps := 4.0
	w := workload.NewHistogram(n)
	rr := rrStrategy(n, eps)
	rrVar, err := rr.Variances(w.Gram(), w.Queries())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(w, eps, Options{Iters: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	optVar, err := res.Strategy.Variances(w.Gram(), w.Queries())
	if err != nil {
		t.Fatal(err)
	}
	ratio := optVar.SampleComplexity(0.01) / rrVar.SampleComplexity(0.01)
	if ratio > 1.05 {
		t.Fatalf("optimized/RR sample-complexity ratio %v at ε=4 (want ≤ ~1)", ratio)
	}
}

// TestPickBest: OptimizeBest returns the warm run where it beat random, and
// otherwise the better of random and the candidate. The candidate rows are
// what the old branch got backwards: a warm run that could not hold on to its
// start's objective replaced the random-init result with something worse than
// it, where the candidate itself — which beat random, or no warm run would
// have started — was the promised answer.
func TestPickBest(t *testing.T) {
	failed := errors.New("warm run failed")
	for _, c := range []struct {
		name              string
		random, cand, run float64
		runErr            error
		want              string
	}{
		{"warm run improves on its start", 100, 90, 80, nil, "warm"},
		{"warm run holds its start", 100, 90, 90, nil, "warm"},
		{"warm run slips but still beats random", 100, 90, 95, nil, "warm"},
		{"warm run slips past random", 100, 90, 105, nil, "candidate"},
		{"warm run ties random", 100, 90, 100, nil, "candidate"},
		{"warm run fails", 100, 90, 0, failed, "candidate"},
		{"warm run fails, candidate no better than random", 100, 100, 0, failed, "random"},
		{"nothing beats random", 100, 100, 100, nil, "random"},
	} {
		results := map[string]*Result{
			"random":    {Objective: c.random},
			"candidate": {Objective: c.cand},
		}
		if c.runErr == nil {
			results["warm"] = &Result{Objective: c.run}
		}
		if got := pickBest(results["random"], results["warm"], c.runErr, results["candidate"]); got != results[c.want] {
			t.Errorf("%s (random %v, candidate %v, warm run %v/%v): picked the result with objective %v, want the %s one",
				c.name, c.random, c.cand, c.run, c.runErr, got.Objective, c.want)
		}
	}
}
