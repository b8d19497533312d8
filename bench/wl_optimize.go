package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	ldp "repro"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/opt"
)

// optimizeCold is a single caller running strategy optimization from scratch:
// jobs of Optimize(AllRange n=64, defaults) + Optimize(Prefix n=128, 100
// iterations). core, opt and linalg do all the work; transport, durable and
// collector are never touched.
type optimizeCold struct {
	cfg    config
	nSmall int
	nLarge int
	iters  []ldp.OptimizeOption // the large call's iteration bound
	small  []ldp.OptimizeOption // the small call's (defaults unless smoke)

	wSmall, wLarge ldp.Workload
	lbSmall, lbLarge,
	rrSmall, rrLarge float64 // sample-complexity lower bounds and the randomized-response baseline

	jobs    int // jobs run so far, all passes: job j uses optimizer seed seed·1000+j
	scRatio []float64
}

const optAlpha = 0.01 // the paper's normalized-variance target for sample complexity

func newOptimizeCold(cfg config) *optimizeCold {
	o := &optimizeCold{cfg: cfg, nSmall: 64, nLarge: 128, iters: []ldp.OptimizeOption{ldp.WithIterations(100)}}
	if cfg.smoke {
		o.nSmall, o.nLarge = 8, 16
		o.small = []ldp.OptimizeOption{ldp.WithIterations(40)}
		o.iters = []ldp.OptimizeOption{ldp.WithIterations(20)}
	}
	return o
}

func (o *optimizeCold) why() string {
	return "cold Optimize at two sizes: core/opt/linalg do all the work, transport/durable/collector none"
}

func (o *optimizeCold) describe() (map[string]string, string) {
	return map[string]string{
		"setup_s":     "workloads built, Gram matrices, lower bounds and the randomized-response baseline computed",
		"op_p50_ms":   "optimize_s×1000: one job = Optimize(AllRange n=64) + Optimize(Prefix n=128, 100 iters)",
		"op_tail_ms":  "the slowest job of the window (too few jobs for a percentile)",
		"side_p50_ms": "the AllRange n=64 call alone (the size under the ParallelRange thresholds)",
		"work_per_s":  "projected-gradient iterations per second, both sizes pooled",
	}, "max"
}

func (o *optimizeCold) setup() error {
	o.wSmall, o.wLarge = ldp.AllRange(o.nSmall), ldp.Prefix(o.nLarge)
	var err error
	bound := func(w ldp.Workload) (lb, rr float64) {
		if err != nil {
			return
		}
		if lb, err = ldp.LowerBoundSampleComplexity(w, 1, optAlpha); err != nil {
			return
		}
		rr, err = ldp.SampleComplexity(ldp.RandomizedResponse(w.Domain(), 1), w, optAlpha)
		return
	}
	o.lbSmall, o.rrSmall = bound(o.wSmall)
	o.lbLarge, o.rrLarge = bound(o.wLarge)
	return err
}

func (o *optimizeCold) teardown() {}

// iterClock timestamps the optimizer's progress callbacks: the first marks
// the end of the step-size pilot, each later one the end of an iteration.
type iterClock struct{ at []time.Time }

func (c *iterClock) tick(int, float64) { c.at = append(c.at, time.Now()) }

// warmup is one shortened job: it faults the code and heap in without
// spending a whole job's four seconds.
func (o *optimizeCold) warmup() (*window, error) {
	win := &window{}
	for _, w := range []ldp.Workload{o.wSmall, o.wLarge} {
		win.attempted++
		if _, err := ldp.Optimize(context.Background(), w, 1, ldp.WithSeed(o.cfg.seed), ldp.WithIterations(10)); err != nil {
			win.failed++
		}
	}
	return win, nil
}

func (o *optimizeCold) run(d time.Duration, tr *tracer) (*window, error) {
	win := &window{detail: map[string]float64{}}
	ctx := context.Background()
	var iterMs, pilotShare samples
	var allocs, bytes float64
	start := time.Now()
	// A job is seconds long: start another only while at least half of one
	// still fits, so the window is d on average instead of d plus a job.
	for halfJob := time.Duration(0); time.Since(start)+halfJob < d; halfJob = time.Since(start) / time.Duration(2*win.attempted) {
		seed := ldp.WithSeed(o.cfg.seed*1000 + int64(o.jobs))
		o.jobs++
		small, large := append([]ldp.OptimizeOption{seed}, o.small...), append([]ldp.OptimizeOption{seed}, o.iters...)
		var clocks [2]iterClock
		if tr != nil {
			small, large = append(small, ldp.WithProgress(clocks[0].tick)), append(large, ldp.WithProgress(clocks[1].tick))
		}
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		job := tr.begin("optimize.job", -1, "")
		t0 := time.Now()
		call := tr.begin("optimize.call", job, "")
		a, errA := ldp.Optimize(ctx, o.wSmall, 1, small...)
		tr.end(call)
		t1 := time.Now()
		call2 := tr.begin("optimize.call", job, "")
		b, errB := ldp.Optimize(ctx, o.wLarge, 1, large...)
		tr.end(call2)
		t2 := time.Now()
		tr.end(job)
		win.attempted++
		if errA != nil || errB != nil {
			win.failed++
			win.problemf("optimize failed: %v %v", errA, errB)
			continue
		}
		if tr != nil {
			runtime.ReadMemStats(&after)
			allocs += float64(after.Mallocs - before.Mallocs)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
			for i, c := range []struct {
				id         int
				start, end time.Time
			}{{call, t0, t1}, {call2, t1, t2}} {
				at := clocks[i].at
				if len(at) < 2 {
					continue
				}
				// The first callback ends iteration 0; one iteration before
				// it the pilot (and the initial projection) ended.
				pilotEnd := at[0].Add(-at[1].Sub(at[0]))
				tr.record("optimize.pilot", c.id, c.start, pilotEnd)
				tr.record("optimize.iter", c.id, pilotEnd, at[0])
				pilotShare.add(pilotEnd.Sub(c.start).Seconds() / c.end.Sub(c.start).Seconds())
				for k := 1; k < len(at); k++ {
					tr.record("optimize.iter", c.id, at[k-1], at[k])
					iterMs.add(at[k].Sub(at[k-1]).Seconds() * 1e3)
				}
			}
		}
		win.op.add(t2.Sub(t0).Seconds() * 1e3)
		win.side.add(t1.Sub(t0).Seconds() * 1e3)
		win.work += float64(a.Iterations + b.Iterations)
		win.detail["iters_small"] += float64(a.Iterations)
		win.detail["iters_large"] += float64(b.Iterations)
		o.checkJob(win, a, o.wSmall, o.lbSmall, o.rrSmall)
		o.checkJob(win, b, o.wLarge, o.lbLarge, o.rrLarge)
	}
	win.elapsed = time.Since(start)
	if n := float64(win.op.n()); n > 0 && tr != nil {
		win.detail["allocs_per_job"], win.detail["bytes_per_job"] = allocs/n, bytes/n
		win.detail["iters_small"] /= n
		win.detail["iters_large"] /= n
		win.detail["iter_ms"], _ = iterMs.quantile(0.5)
		win.detail["pilot_share"], _ = pilotShare.quantile(0.5)
	}
	return win, nil
}

// checkJob holds one returned mechanism to the paper's promises: the strategy
// is ε-LDP (NewRandomizer validates the ratio bound to EpsValidationTol) and
// needs fewer samples than randomized response; its distance to the lower
// bound is the quality figure core.sc_ratio.
func (o *optimizeCold) checkJob(win *window, m *ldp.Optimized, w ldp.Workload, lb, rr float64) {
	if _, err := ldp.NewRandomizer(m.Strategy()); err != nil {
		win.problemf("%s: returned strategy is not ε-LDP: %v", w.Name(), err)
		return
	}
	sc, err := ldp.SampleComplexity(m, w, optAlpha)
	if err != nil || math.IsNaN(sc) {
		win.problemf("%s: sample complexity: %v %v", w.Name(), sc, err)
		return
	}
	if sc >= rr {
		win.problemf("%s: optimized sample complexity %.0f does not beat randomized response %.0f", w.Name(), sc, rr)
	}
	if sc < lb*(1-1e-9) {
		win.problemf("%s: sample complexity %.0f is below the lower bound %.0f", w.Name(), sc, lb)
	}
	o.scRatio = append(o.scRatio, sc/lb)
}

// meanRatio is the run's quality figure: sample complexity ÷ lower bound,
// averaged over every mechanism returned so far.
func (o *optimizeCold) meanRatio() float64 {
	mean := 0.0
	for _, r := range o.scRatio {
		mean += r / float64(len(o.scRatio))
	}
	return mean
}

func (o *optimizeCold) verify() []check {
	return []check{{Name: "every strategy ε-LDP, above the lower bound and better than randomized response",
		OK: len(o.scRatio) > 0, Detail: fmt.Sprintf("%d mechanisms, mean sample complexity ÷ lower bound = %.4f", len(o.scRatio), o.meanRatio())}}
}

func (o *optimizeCold) layers(base, traced *window, stats []spanStat) (map[string]value, []share, string, error) {
	m := map[string]value{}
	m["core.sc_ratio"] = value{Value: o.meanRatio(), Stat: "mean", Samples: len(o.scRatio),
		Means: "optimize_sc_ratio: sample complexity at α=0.01 ÷ LowerBoundSampleComplexity, mean over returned mechanisms"}
	m["core.pilot_share"] = value{Value: traced.detail["pilot_share"], Stat: "p50", Means: "share of an Optimize call spent in the step-size pilot"}
	m["core.iter_ms"] = value{Value: traced.detail["iter_ms"], Stat: "p50", Means: "one projected-gradient iteration, both sizes pooled"}
	m["core.iters"] = value{Value: traced.detail["iters_small"] + traced.detail["iters_large"], Stat: "mean", Means: "main-run iterations per job (the pilot adds 120 per call)"}
	m["core.allocs_per_job"] = value{Value: traced.detail["allocs_per_job"], Stat: "mean"}
	m["core.bytes_per_job"] = value{Value: traced.detail["bytes_per_job"], Stat: "mean"}

	// The kernels, at the two shapes the job runs (m = 4n).
	var grad, proj, mul, mulatb, chol, gram []float64
	for _, fresh := range []func() ldp.Workload{
		func() ldp.Workload { return ldp.AllRange(o.nSmall) },
		func() ldp.Workload { return ldp.Prefix(o.nLarge) },
	} {
		w := fresh()
		n := w.Domain()
		q, g, z := optimizerFixture(w, o.cfg.seed)
		ws, gbuf := core.NewWorkspace(4*n, n), linalg.New(4*n, n)
		grad = append(grad, probe(func() { _, _ = ws.ObjectiveGrad(q, g, nil, gbuf) }))
		var mp opt.MatrixProjection
		var sc opt.Scratch
		proj = append(proj, probe(func() { _ = opt.ProjectMatrixInto(&mp, &sc, q, z, 1) }))
		dst, sq := linalg.New(4*n, n), linalg.New(n, n)
		mul = append(mul, probe(func() { linalg.MulTo(dst, q, g) }))
		mulatb = append(mulatb, probe(func() { linalg.MulAtBTo(sq, q, dst) }))
		spd := linalg.MulAtB(q, q)
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+1)
		}
		var c linalg.Cholesky
		chol = append(chol, probe(func() {
			if c.Factor(spd) == nil {
				c.SolveTo(sq, g)
			}
		}))
		// Gram is memoized per workload value, so each call gets a new one.
		gram = append(gram, probe(func() { fresh().Gram() }))
	}
	pair := func(name string, xs []float64, means string) {
		m[name] = value{Value: xs[0] + xs[1], Stat: "p50 sum", Means: means + fmt.Sprintf(" (n=%d: %.4f, n=%d: %.4f)", o.nSmall, xs[0], o.nLarge, xs[1])}
	}
	pair("core.objective_grad_ms", grad, "Workspace.ObjectiveGrad at m=4n, both sizes summed")
	pair("opt.project_ms", proj, "opt.ProjectMatrixInto at m=4n, both sizes summed")
	pair("linalg.mul_ms", mul, "linalg.MulTo (m×n)·(n×n), both sizes summed")
	pair("linalg.mulatb_ms", mulatb, "linalg.MulAtBTo (m×n)ᵀ·(m×n), both sizes summed")
	pair("linalg.cholesky_solve_ms", chol, "Cholesky.Factor + SolveTo at n×n, both sizes summed")
	pair("workload.gram_ms", gram, "Workload.Gram() on a fresh workload, both sizes summed")

	// One job = (120 pilot + main) iterations per call, each one objective +
	// gradient and one projection.
	job := totalMs(stats, "optimize.job") / float64(traced.op.n())
	const pilotIters = 120 // three candidate step sizes × 40 iterations
	itersSmall, itersLarge := pilotIters+traced.detail["iters_small"], pilotIters+traced.detail["iters_large"]
	shares := []share{
		{Layer: "core.objective_grad", Ms: itersSmall*grad[0] + itersLarge*grad[1]},
		{Layer: "opt.project", Ms: itersSmall*proj[0] + itersLarge*proj[1]},
		{Layer: "workload.gram", Ms: gram[0] + gram[1]},
	}
	return m, finishShares(shares, job), "optimize.job", nil
}

// optimizerFixture builds a feasible strategy iterate, the workload's Gram
// matrix and the projection's z for the kernel probes: a projected uniform
// random matrix at m = 4n, exactly how Optimize initializes.
func optimizerFixture(w ldp.Workload, seed int64) (q, gram *linalg.Matrix, z []float64) {
	n := w.Domain()
	m := 4 * n
	rng := rand.New(rand.NewSource(seed))
	z = linalg.Constant(m, (1+math.Exp(-1.0))/(2*float64(m)))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64()
	}
	proj, err := opt.ProjectMatrix(r, z, 1.0)
	if err != nil {
		panic(err) // a uniform random matrix always projects
	}
	return proj.Q, w.Gram(), z
}
