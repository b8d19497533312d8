// Package benchfix holds the optimizer hot-path benchmark bodies shared by
// the repository benchmark suite (bench_test.go) and the machine-readable
// perf tracker (cmd/ldpbench -exp bench), so the two always measure the same
// code with the same fixtures and cannot drift apart.
package benchfix

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/core"
	"repro/internal/freqoracle"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/protocol"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Fixture builds the shared (Q, gram, z) fixture the hot-path benchmarks
// use: a projected random strategy at m = 4n on the Prefix workload.
func Fixture(n int) (q, gram *linalg.Matrix, z []float64) {
	m := 4 * n
	rng := rand.New(rand.NewSource(1))
	gram = workload.NewPrefix(n).Gram()
	z = linalg.Constant(m, (1+math.Exp(-1.0))/(2*float64(m)))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64()
	}
	proj, err := opt.ProjectMatrix(r, z, 1.0)
	if err != nil {
		panic(err)
	}
	return proj.Q, gram, z
}

// Optimize benchmarks complete strategy optimization (Algorithm 2
// end-to-end) on Prefix at the given domain size.
func Optimize(n int) func(b *testing.B) {
	return func(b *testing.B) {
		w := workload.NewPrefix(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(w, 1.0, core.Options{Iters: 100, Seed: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ObjectiveGrad benchmarks one objective + analytic gradient evaluation
// through a reused core.Workspace. Steady state must report 0 allocs/op.
func ObjectiveGrad(n int) func(b *testing.B) {
	return func(b *testing.B) {
		q, gram, _ := Fixture(n)
		ws := core.NewWorkspace(q.Rows(), q.Cols())
		grad := linalg.New(q.Rows(), q.Cols())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.ObjectiveGrad(q, gram, nil, grad); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Projection benchmarks Algorithm 1 over a full strategy matrix through
// reused projection buffers. Steady state must report 0 allocs/op.
func Projection(n int) func(b *testing.B) {
	return func(b *testing.B) {
		q, _, z := Fixture(n)
		var out opt.MatrixProjection
		var ws opt.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := opt.ProjectMatrixInto(&out, &ws, q, z, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// RRStrategy returns the n-ary randomized-response strategy matrix — the
// standard cheap fixture for protocol benchmarks.
func RRStrategy(n int, eps float64) *strategy.Strategy {
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

// CollectorIngest benchmarks concurrent report ingestion through the
// collector: shards ≤ 0 uses the sharded default, shards = 1 degenerates to
// the single-mutex configuration the sharded design replaced, so the two
// runs isolate the cost of lock contention. GOMAXPROCS is raised to the
// goroutine count for the duration so the goroutines actually contend even
// when the harness machine has fewer cores (on real multicore hardware this
// is a no-op). The per-report critical section (one histogram increment) is
// the worst case for a global lock — there is nothing to amortize it.
func CollectorIngest(goroutines, shards int) func(b *testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(0)
		if goroutines > prev {
			runtime.GOMAXPROCS(goroutines)
			defer runtime.GOMAXPROCS(prev)
		}
		const n = 64
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		col, err := ldp.NewCollector(agg, workload.NewHistogram(n), shards)
		if err != nil {
			b.Fatal(err)
		}
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
}

// SnapshotCached benchmarks the collector's read path at n=256 with 32
// shards. cached=true polls a quiescent collector — after the first merge
// every State() is served from the snapshot cache (one copy, no shard
// locks). cached=false ingests one report before each read, forcing the
// pre-cache behavior: a full lock-all remerge of every shard per read. The
// gap between the two is what snapshot caching buys a server whose /snapshot
// is polled more often than reports arrive.
func SnapshotCached(cached bool) func(b *testing.B) {
	return func(b *testing.B) {
		const n = 256
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		col, err := ldp.NewCollector(agg, workload.NewHistogram(n), 32)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 4096; i++ {
			if err := col.Ingest(ldp.Report{Index: rng.Intn(n)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !cached {
				if err := col.Ingest(ldp.Report{Index: i % n}); err != nil {
					b.Fatal(err)
				}
			}
			if col.Snap().StateLen() != n {
				b.Fatal("bad snapshot")
			}
		}
	}
}

// OLHAbsorb benchmarks OLH report aggregation at domain size n: batched=true
// runs the candidate-enumeration absorb (invert the report's hash, visit the
// ~p/g field elements of the reported bucket), batched=false the classic
// per-type scan hashing all n types. Both compute identical accumulators
// (equivalence-tested in freqoracle); the ratio is the aggregation speedup.
func OLHAbsorb(batched bool, n int) func(b *testing.B) {
	return func(b *testing.B) {
		o, err := freqoracle.NewOLH(n, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		const pool = 256
		reports := make([]protocol.Report, pool)
		for i := range reports {
			reports[i], err = o.Randomize(rng.Intn(n), rng)
			if err != nil {
				b.Fatal(err)
			}
		}
		acc := make([]float64, o.StateLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reports[i%pool]
			if batched {
				err = o.Absorb(acc, r)
			} else {
				err = o.AbsorbScan(acc, r)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// WALAppend benchmarks durable batch ingest against the in-memory baseline
// the durability layer wraps: per op, one batch-report batch flows through
// Collector.IngestBatch. mode "memory" is the plain sharded collector;
// "buffered" adds the write-ahead log with group-commit buffered writes (the
// production default — within 2× of memory at the transport's default batch
// size); "fsync" additionally fsyncs every group commit before acknowledging.
// The gap between the three is the price of each durability level on the hot
// path. Small batches pay the fixed write(2) per record without amortizing
// it (a single-goroutine bench cannot group-commit with anyone), so the
// ratio is measured at both 64 and the transport's 4096-report default.
func WALAppend(mode string, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		const n = 64
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		var opts []ldp.CollectorOption
		var dir string
		if mode != "memory" {
			if dir, err = os.MkdirTemp("", "walbench"); err != nil {
				b.Fatal(err)
			}
			// Checkpoints off: the benchmark isolates the append path.
			dopts := []ldp.DurabilityOption{ldp.CheckpointEvery(0), ldp.FsyncEachCommit(mode == "fsync")}
			opts = append(opts, ldp.WithDurability(dir, dopts...))
		}
		col, err := ldp.NewCollector(agg, workload.NewHistogram(n), 0, opts...)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		reports := make([]ldp.Report, batch)
		for i := range reports {
			reports[i] = ldp.Report{Index: rng.Intn(n)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := col.IngestBatch(reports); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := col.Close(); err != nil {
			b.Fatal(err)
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// RecoverReplay benchmarks crash recovery: per op, a collector opens a data
// directory holding 256 WAL records × 64 reports (no checkpoint — the pure
// replay path) and reconstructs its state. The ns/op is the restart cost a
// checkpoint interval amortizes away.
func RecoverReplay() func(b *testing.B) {
	return func(b *testing.B) {
		const n, records, batch = 64, 256, 64
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		w := workload.NewHistogram(n)
		dir, err := os.MkdirTemp("", "recoverbench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		seedCol, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		reports := make([]ldp.Report, batch)
		for r := 0; r < records; r++ {
			for i := range reports {
				reports[i] = ldp.Report{Index: rng.Intn(n)}
			}
			if err := seedCol.IngestBatch(reports); err != nil {
				b.Fatal(err)
			}
		}
		if err := seedCol.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
			if err != nil {
				b.Fatal(err)
			}
			if err := col.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// SnapAt benchmarks the historical read path: per op, one retained epoch is
// served from the checkpoint ladder (file read + CRC + decode, no WAL
// replay). The fixture checkpoints 8 epochs at n=256 and reads the oldest
// retained one — the fully cold rung; the cost bounds every historical read
// an `ldpquery -as-of` or a fleet SnapAt triggers. compress toggles gzip
// history, isolating the decompression share.
func SnapAt(compress bool) func(b *testing.B) {
	return func(b *testing.B) {
		const n, perEpoch, epochs = 256, 512, 8
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "snapatbench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		col, err := ldp.NewCollector(agg, workload.NewHistogram(n), 0,
			ldp.WithDurability(dir, ldp.CheckpointEvery(0), ldp.HistoryKeep(2), ldp.GzipHistory(compress)))
		if err != nil {
			b.Fatal(err)
		}
		defer col.Close()
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
}

// CheckpointStream benchmarks the streaming checkpoint writer: per op, one
// n=4096 snapshot flows through WriteCheckpointFile (header patch, CRC,
// atomic rename, fsync dance included). This is the write-side cost each
// checkpoint cut pays off the ingest path; compress adds the gzip layer the
// unary mechanisms opt into.
func CheckpointStream(compress bool) func(b *testing.B) {
	return func(b *testing.B) {
		const n = 4096
		snap := transport.Snapshot{
			State: make([]float64, n),
			Count: 1 << 17,
			Epoch: 5,
			Info:  transport.Info{Mechanism: "OUE", Domain: n, Epsilon: 1},
		}
		for i := range snap.State {
			snap.State[i] = float64(i % 7)
		}
		keys := []history.KeyCount{{Key: "00f1e2d3c4b5a6978877665544332211", Reports: 1 << 17}}
		dir, err := os.MkdirTemp("", "ckptbench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := history.WriteCheckpointFile(dir, 3, snap, keys, compress); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MulAtB benchmarks the goroutine-parallel matmul kernel at the optimizer's
// Gram-product shape M = QᵀQ (it fans out above a flop threshold; at
// GOMAXPROCS=1 it measures the serial kernel).
func MulAtB(m, n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(8))
		a := linalg.New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		dst := linalg.New(n, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			linalg.MulAtBTo(dst, a, a)
		}
	}
}

// PoolAnswerBatch benchmarks answering a heterogeneous four-workload batch
// over one snapshot. shared routes the batch through an EstimatorPool's
// AnswerBatch — the estimate x̂ is computed once, repeated W·B rows are shared
// (AllRange contains every Histogram and Prefix row), and estimators are
// cached across iterations. naive is the pool-less server baseline: a fresh
// estimator and separate Answers + Variance reads per workload per request.
func PoolAnswerBatch(shared bool) func(b *testing.B) {
	return func(b *testing.B) {
		const n, users = 64, 400
		s := RRStrategy(n, 1.0)
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			b.Fatal(err)
		}
		workloads := []ldp.Workload{
			ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n), ldp.WidthRange(n, 4),
		}
		col, err := ldp.NewCollector(agg, workloads[0], 0)
		if err != nil {
			b.Fatal(err)
		}
		rz, err := ldp.NewRandomizer(s)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < users; i++ {
			rep, err := rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				b.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				b.Fatal(err)
			}
		}
		snap := col.Snap()
		pool := ldp.NewEstimatorPool()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if shared {
				if _, err := pool.AnswerBatch(agg, snap, workloads, ldp.WithBatchVariance()); err != nil {
					b.Fatal(err)
				}
				continue
			}
			for _, w := range workloads {
				est, err := ldp.NewEstimator(agg, w)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := est.Answers(snap); err != nil {
					b.Fatal(err)
				}
				if _, err := est.Variance(snap); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// MetricsHotPath benchmarks one hot-path telemetry step — a pre-resolved
// labeled counter increment, a gauge set, and a latency-histogram
// observation — the exact operations every instrumented ingest pays. The
// benchgate pins it at 0 allocs/op: instrumentation that starts allocating
// per request is a regression even when no scraper is attached.
func MetricsHotPath() func(b *testing.B) {
	return func(b *testing.B) {
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
}
