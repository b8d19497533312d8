// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus ablation and micro benchmarks for the
// optimizer's design choices (the average-case relaxation and the
// initialization).
//
// Figure benchmarks run the shared experiment harness at reduced scale and
// report the figure's headline quantity through b.ReportMetric, so
// `go test -bench=.` regenerates the paper's qualitative results. Paper-scale
// runs are available through cmd/ldpbench -full.
package ldp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/freqoracle"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/protocol"
	"repro/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.Config{Alpha: 0.01, Seed: 1, Iters: 80}
}

// BenchmarkFigure1Epsilon regenerates Figure 1 (sample complexity vs ε, six
// workloads, seven mechanisms) and reports the paper's headline metric: the
// improvement ratio of Optimized over the best competitor (paper: 1.0–14.6×).
func BenchmarkFigure1Epsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.FigureEpsilon(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		sum := experiments.Improvements(sweeps)
		b.ReportMetric(sum.MaxRatio, "max-improvement-x")
		b.ReportMetric(sum.MinRatio, "min-improvement-x")
		b.ReportMetric(float64(sum.Losses), "losses")
	}
}

// BenchmarkFigure2Domain regenerates Figure 2 (sample complexity vs n at
// ε = 1) and reports the log-log slope of the Optimized curve on AllRange
// (paper: ≈ 0.5, vs ≈ 1.0 for non-adaptive mechanisms).
func BenchmarkFigure2Domain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.FigureDomain(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, sw := range sweeps {
			if sw.Workload != "AllRange" {
				continue
			}
			for _, se := range sw.Series {
				slope := logLogSlope(sw.Points, se.Values)
				switch se.Mechanism {
				case "Optimized":
					b.ReportMetric(slope, "optimized-slope")
				case "Randomized Response":
					b.ReportMetric(slope, "rr-slope")
				}
			}
		}
	}
}

func logLogSlope(xs, ys []float64) float64 {
	// Least-squares slope in log-log space, ignoring non-finite points.
	var sx, sy, sxx, sxy, n float64
	for i := range xs {
		if math.IsInf(ys[i], 0) || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// BenchmarkFigure3aDatasets regenerates Figure 3a and reports the maximum
// deviation of the Optimized mechanism's data-dependent sample complexity
// from the worst case (paper: 1.009×).
func BenchmarkFigure3aDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FigureDatasets(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		worst := rows[len(rows)-1].Values["Optimized"]
		maxDev := 1.0
		for _, r := range rows[:len(rows)-1] {
			if dev := worst / r.Values["Optimized"]; dev > maxDev {
				maxDev = dev
			}
		}
		b.ReportMetric(maxDev, "max-worst/data-x")
	}
}

// BenchmarkFigure3bInit regenerates Figure 3b and reports the largest
// variance ratio to the best strategy found across initializations and m
// (paper: ≤ 1.21).
func BenchmarkFigure3bInit(b *testing.B) {
	cfg := benchConfig()
	cfg.Iters = 50
	for i := 0; i < b.N; i++ {
		pts, err := experiments.FigureInit(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, p := range pts {
			if p.Max > worst {
				worst = p.Max
			}
		}
		b.ReportMetric(worst, "max-ratio-to-best")
	}
}

// BenchmarkFigure3cIteration times one projected-gradient iteration
// (objective + gradient + projection at m = 4n) across domain sizes — the
// quantity Figure 3c plots. The paper reports O(n³) growth.
func BenchmarkFigure3cIteration(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := 4 * n
			eps := 1.0
			rng := rand.New(rand.NewSource(1))
			gram := workload.NewHistogram(n).Gram()
			z := linalg.Constant(m, (1+math.Exp(-eps))/(2*float64(m)))
			r := linalg.New(m, n)
			for i := range r.Data() {
				r.Data()[i] = rng.Float64()
			}
			proj, err := opt.ProjectMatrix(r, z, eps)
			if err != nil {
				b.Fatal(err)
			}
			q := proj.Q
			ws := core.NewWorkspace(m, n)
			grad := linalg.New(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.ObjectiveGrad(q, gram, nil, grad); err != nil {
					b.Fatal(err)
				}
				cand := q.Clone()
				cand.AddScaled(-1e-6, grad)
				if _, err := opt.ProjectMatrix(cand, z, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4WNNLS regenerates Figure 4 and reports the range of WNNLS
// improvement factors across the six workloads (paper: 1.96–5.6×).
func BenchmarkFigure4WNNLS(b *testing.B) {
	cfg := benchConfig()
	cfg.Iters = 60
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FigureWNNLS(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := math.Inf(1), 0.0
		for _, r := range rows {
			if r.Improvement < lo {
				lo = r.Improvement
			}
			if r.Improvement > hi {
				hi = r.Improvement
			}
		}
		b.ReportMetric(lo, "min-improvement-x")
		b.ReportMetric(hi, "max-improvement-x")
	}
}

// BenchmarkTable1 builds the classical mechanisms as strategy matrices and
// validates their LDP constraints (the executable Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(8, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.LDPValid {
				b.Fatalf("%s invalid", r.Mechanism)
			}
		}
	}
}

// --- ablation benchmarks ----------------------------------------------------

// BenchmarkAblationRelaxation measures how tight the average-case relaxation
// (Theorem 5.1) is for optimized strategies: L_worst/L_avg per workload
// (the paper argues, and Example 3.7 shows, the two are often very close).
func BenchmarkAblationRelaxation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		worstRatio := 0.0
		for _, name := range workload.PaperWorkloads {
			w, err := workload.ByName(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Optimize(w, 1.0, core.Options{Iters: 120, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			vp, err := res.Strategy.Variances(w.Gram(), w.Queries())
			if err != nil {
				b.Fatal(err)
			}
			if r := vp.Worst(1) / vp.Avg(1); r > worstRatio {
				worstRatio = r
			}
		}
		b.ReportMetric(worstRatio, "max-Lworst/Lavg")
	}
}

// BenchmarkAblationInit compares random initialization (the paper's choice)
// against warm-starting from randomized response, reporting final objectives.
func BenchmarkAblationInit(b *testing.B) {
	w := workload.NewPrefix(16)
	rrQ := baselines.RandomizedResponse(16, 1.0).Strategy()
	for i := 0; i < b.N; i++ {
		random, err := core.Optimize(w, 1.0, core.Options{Iters: 150, Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := core.Optimize(w, 1.0, core.Options{Iters: 150, Seed: 6, Init: rrQ})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(random.Objective, "random-init-objective")
		b.ReportMetric(warm.Objective, "rr-init-objective")
	}
}

// --- micro benchmarks -------------------------------------------------------
//
// The calls a per_layer metric of BENCHMARK.json times (Optimize,
// Workspace.ObjectiveGrad, ProjectMatrixInto, MulAtBTo, cached Snap, WAL
// append, recovery replay, raw SnapAt/checkpoint, pooled AnswerBatch) are
// measured by `go run ./bench` and have no Benchmark* twin here.

// BenchmarkProjection times Algorithm 1 over a full strategy matrix.
func BenchmarkProjection(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := 4 * n
			rng := rand.New(rand.NewSource(3))
			z := linalg.Constant(m, (1+math.Exp(-1.0))/(2*float64(m)))
			r := linalg.New(m, n)
			for i := range r.Data() {
				r.Data()[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.ProjectMatrix(r, z, 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVarianceProfile times the full variance-profile computation
// (reconstruction + per-user variances) used by every evaluation.
func BenchmarkVarianceProfile(b *testing.B) {
	n := 64
	w := workload.NewAllRange(n)
	rr := baselines.RandomizedResponse(n, 1.0).Strategy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rr.Variances(w.Gram(), w.Queries()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRandomize times the per-user randomizer (alias sampling
// through the streaming protocol's report path).
func BenchmarkClientRandomize(b *testing.B) {
	n := 256
	rz, err := ldp.NewRandomizer(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		b.Fatal(err)
	}
	client, err := ldp.NewClient(rz)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Randomize(i%n, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorIngest measures concurrent ingest throughput: the sharded
// collector against the single-mutex configuration (shards=1) it replaced, at
// 1, 4 and 8 ingesting goroutines. The headline claim: sharded ingest scales
// with goroutines where the single mutex serializes them. GOMAXPROCS is
// raised to the goroutine count for the duration so the goroutines actually
// contend even when the harness machine has fewer cores. The per-report
// critical section (one histogram increment) is the worst case for a global
// lock — there is nothing to amortize it.
func BenchmarkCollectorIngest(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sharded-g=%d", g), func(b *testing.B) { benchCollectorIngest(b, g, 0) })
		b.Run(fmt.Sprintf("mutex-g=%d", g), func(b *testing.B) { benchCollectorIngest(b, g, 1) })
	}
}

func benchCollectorIngest(b *testing.B, goroutines, shards int) {
	prev := runtime.GOMAXPROCS(0)
	if goroutines > prev {
		runtime.GOMAXPROCS(goroutines)
		defer runtime.GOMAXPROCS(prev)
	}
	const n = 64
	col := benchCollector(b, n, shards)
	const pool = 1 << 14
	rng := rand.New(rand.NewSource(9))
	reports := make([]ldp.Report, pool)
	for i := range reports {
		reports[i] = ldp.Report{Index: rng.Intn(n)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per, extra := b.N/goroutines, b.N%goroutines
	for g := 0; g < goroutines; g++ {
		cnt := per
		if g < extra {
			cnt++
		}
		wg.Add(1)
		go func(g, cnt int) {
			defer wg.Done()
			for i := 0; i < cnt; i++ {
				if err := col.Ingest(reports[(g*7+i)&(pool-1)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, cnt)
	}
	wg.Wait()
}

// benchCollector opens a randomized-response collector over Histogram(n),
// closed when the benchmark ends.
func benchCollector(b *testing.B, n, shards int, opts ...ldp.CollectorOption) *ldp.Collector {
	b.Helper()
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		b.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, workload.NewHistogram(n), shards, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { col.Close() })
	return col
}

// BenchmarkOLHAbsorb compares OLH's candidate-enumeration absorb (invert the
// report's hash, visit ~p/g field elements) against the classic all-types
// scan it replaced. Both produce identical accumulators (equivalence-tested
// in freqoracle); the ratio is the aggregation speedup.
func BenchmarkOLHAbsorb(b *testing.B) {
	for _, n := range []int{256, 1024} {
		o, err := freqoracle.NewOLH(n, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		reports := make([]protocol.Report, 256)
		for i := range reports {
			if reports[i], err = o.Randomize(rng.Intn(n), rng); err != nil {
				b.Fatal(err)
			}
		}
		for _, v := range []struct {
			name   string
			absorb func([]float64, protocol.Report) error
		}{{"candidates", o.Absorb}, {"scan", o.AbsorbScan}} {
			b.Run(fmt.Sprintf("%s/n=%d", v.name, n), func(b *testing.B) {
				acc := make([]float64, o.StateLen())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.absorb(acc, reports[i%len(reports)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnapAtGzip measures the historical read path over gzip history:
// serve the oldest of 8 retained n=256 epochs from the checkpoint ladder
// (file read + CRC + gunzip + decode, no replay). The raw path is the
// ledger's history.snapat_ms; this isolates the decompression share.
func BenchmarkSnapAtGzip(b *testing.B) {
	const n, perEpoch, epochs = 256, 512, 8
	col := benchCollector(b, n, 0,
		ldp.WithDurability(b.TempDir(), ldp.CheckpointEvery(0), ldp.HistoryKeep(2), ldp.GzipHistory(true)))
	rng := rand.New(rand.NewSource(31))
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			if err := col.Ingest(ldp.Report{Index: rng.Intn(n)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := col.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	oldest := col.RetainedEpochs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.SnapAt(oldest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsHotPath times one hot-path telemetry step — a pre-resolved
// labeled counter increment, a gauge set, and a latency-histogram
// observation — the exact operations every instrumented ingest pays. Its
// 0 allocs/op is pinned by internal/obs's TestHotPathAllocs.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.CounterVec("ldp_bench_requests_total", "Benchmark counter.", "endpoint", "code").
		With("reports", "200")
	g := reg.Gauge("ldp_bench_level", "Benchmark gauge.")
	h := reg.Histogram("ldp_bench_duration_seconds", "Benchmark latency in seconds.", obs.LatencyBounds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(12e-6)
	}
}

// BenchmarkWNNLS times consistency post-processing on the AllRange workload
// through its implicit operators.
func BenchmarkWNNLS(b *testing.B) {
	n := 64
	w := workload.NewAllRange(n)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(50))
	}
	noisy := w.MatVec(x)
	for i := range noisy {
		noisy[i] += 20 * rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.NNLS(w, noisy, opt.NNLSOptions{MaxIters: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingularValues times the Gram-based singular-value computation
// that the lower bounds use.
func BenchmarkSingularValues(b *testing.B) {
	g := workload.NewPrefix(128).Gram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SingularValuesFromGram(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarianceRead times one variance read (VarianceStream over the
// whole workload) at the query_mixed ledger workload's shape: a strategy
// optimized for Prefix with n = 96 and m = 384 outputs (30 iterations, seed
// 1), read through each of the three workloads its /query refresh streams.
func BenchmarkVarianceRead(b *testing.B) {
	const n, m = 96, 384
	s, err := ldp.OptimizeStrategy(context.Background(), ldp.Prefix(n), 1,
		ldp.WithOutputs(m), ldp.WithIterations(30), ldp.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		b.Fatal(err)
	}
	state := make([]float64, m)
	for i := range state {
		state[i] = float64(1 + i%7)
	}
	snap := ldp.NewSnapshot(state, linalg.Sum(state), 1, ldp.MechanismInfoOf(agg))
	for _, w := range []ldp.Workload{ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n)} {
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := est.VarianceStream(snap, func(int, float64) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
