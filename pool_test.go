package ldp_test

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// reportSource is anything that can privatize a user type — a frequency
// oracle (its own randomizer) or a strategy Randomizer.
type reportSource interface {
	Randomize(u int, rng *rand.Rand) (ldp.Report, error)
}

// randomizerFor returns the report source matching agg: the oracle itself,
// or a Randomizer built from the aggregator's strategy.
func randomizerFor(t *testing.T, agg ldp.Aggregator) reportSource {
	t.Helper()
	if rs, ok := agg.(reportSource); ok {
		return rs
	}
	sa, ok := agg.(interface{ Strategy() *ldp.Strategy })
	if !ok {
		t.Fatal("aggregator exposes neither Randomize nor Strategy")
	}
	rz, err := ldp.NewRandomizer(sa.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	return rz
}

// ingestSkewed fills a collector with a fixed-seed skewed population and
// returns the snapshot.
func ingestSkewed(t *testing.T, agg ldp.Aggregator, w ldp.Workload, users int, seed int64) ldp.Snapshot {
	t.Helper()
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	rz := randomizerFor(t, agg)
	rng := rand.New(rand.NewSource(seed))
	n := agg.Domain()
	for i := 0; i < users; i++ {
		u := rng.Intn(n / 4)
		if rng.Float64() < 0.25 {
			u = rng.Intn(n)
		}
		rep, err := rz.Randomize(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	return col.Snap()
}

// Cold vs. warm vs. restart: the first Strategy resolution runs the
// optimizer, the second is a memory hit, and a fresh pool over the same cache
// directory — the restart — loads the persisted entry instead of re-running
// Algorithm 1, bit-identically.
func TestPoolStrategyColdWarmRestart(t *testing.T) {
	const n, eps = 8, 1.0
	dir := t.TempDir()
	w := ldp.Prefix(n)
	opts := []ldp.OptimizeOption{ldp.WithIterations(60), ldp.WithSeed(7)}
	ctx := context.Background()

	pool := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir))
	s1, err := pool.Strategy(ctx, w, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.OptimizerRuns != 1 || st.StrategyMemHits != 0 || st.StrategyDiskHits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}

	s2, err := pool.Strategy(ctx, w, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatal("warm resolution returned a different strategy instance")
	}
	if st := pool.Stats(); st.OptimizerRuns != 1 || st.StrategyMemHits != 1 {
		t.Fatalf("warm stats: %+v", st)
	}

	// "Restart": a brand-new pool sharing only the cache directory.
	pool2 := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir))
	s3, err := pool2.Strategy(ctx, w, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool2.Stats(); st.OptimizerRuns != 0 || st.StrategyDiskHits != 1 {
		t.Fatalf("restart must skip the optimizer via the persisted cache, stats: %+v", st)
	}
	if ldp.StrategyDigest(s3) != ldp.StrategyDigest(s1) {
		t.Fatal("persisted strategy is not bit-identical to the optimized one")
	}
	got := s3.Q.Data()
	want := s1.Q.Data()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("strategy entry %d differs after reload: %v vs %v", i, got[i], want[i])
		}
	}

	// A different ε is a different key: the optimizer runs again.
	if _, err := pool2.Strategy(ctx, w, 2.0, opts...); err != nil {
		t.Fatal(err)
	}
	if st := pool2.Stats(); st.OptimizerRuns != 1 {
		t.Fatalf("distinct ε should re-optimize, stats: %+v", st)
	}
}

// A corrupted cache entry must be ignored (digest-verified load), costing a
// re-optimization rather than serving a wrong strategy.
func TestPoolCacheRejectsCorruptEntry(t *testing.T) {
	const n, eps = 8, 1.0
	dir := t.TempDir()
	w := ldp.Histogram(n)
	opts := []ldp.OptimizeOption{ldp.WithIterations(40), ldp.WithSeed(3)}
	ctx := context.Background()

	pool := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir))
	if _, err := pool.Strategy(ctx, w, eps, opts...); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.strategy"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (%v)", entries, err)
	}
	// Flip one byte mid-file: the wire decode or the digest check must refuse.
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	pool2 := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir))
	if _, err := pool2.Strategy(ctx, w, eps, opts...); err != nil {
		t.Fatal(err)
	}
	if st := pool2.Stats(); st.OptimizerRuns != 1 || st.StrategyDiskHits != 0 {
		t.Fatalf("corrupt entry must be a miss, stats: %+v", st)
	}
}

// Satellite: N goroutines resolving overlapping (identity, workload) keys
// must trigger exactly one estimator build per distinct key, and pooled
// answers must be byte-identical to fresh estimators. Run under -race in CI.
func TestPoolEstimatorSingleflightRace(t *testing.T) {
	const n, users, goroutines, rounds = 32, 400, 16, 4
	agg, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []ldp.Workload{
		ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n), ldp.WidthRange(n, 4),
	}
	snap := ingestSkewed(t, agg, workloads[0], users, 11)

	pool := ldp.NewEstimatorPool()
	var wg sync.WaitGroup
	answers := make([][][]float64, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Overlapping keys: every goroutine walks all workloads, offset
				// by its index so resolutions collide mid-flight.
				for k := range workloads {
					w := workloads[(g+k)%len(workloads)]
					est, err := pool.Estimator(agg, w)
					if err != nil {
						errs[g] = err
						return
					}
					a, err := est.Answers(snap)
					if err != nil {
						errs[g] = err
						return
					}
					if r == 0 && (g+k)%len(workloads) == 0 {
						answers[g] = append(answers[g], a)
					}
					if _, err := est.Variance(snap); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := pool.Stats()
	if st.EstimatorBuilds != uint64(len(workloads)) {
		t.Fatalf("want exactly %d estimator builds (one per distinct key), got %d", len(workloads), st.EstimatorBuilds)
	}
	if st.EstimatorHits == 0 {
		t.Fatal("expected cache hits under contention")
	}

	// Byte-identical to a fresh, unpooled estimator.
	for _, w := range workloads {
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.Answers(snap)
		if err != nil {
			t.Fatal(err)
		}
		pest, err := pool.Estimator(agg, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pest.Answers(snap)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s answer %d: pooled %v, fresh %v", w.Name(), i, got[i], want[i])
			}
		}
	}
}

// AnswerBatch must return, per workload, exactly what that workload's own
// estimator returns — byte-identical answers and variances — while sharing
// x̂ and the variance form across the batch, and deduplicating workloads with
// equal digests.
func TestAnswerBatchMatchesIndividualReads(t *testing.T) {
	const n, users = 32, 600
	for _, mech := range []string{"oracle", "strategy"} {
		t.Run(mech, func(t *testing.T) {
			var agg ldp.Aggregator
			var err error
			if mech == "oracle" {
				agg, err = ldp.NewOUE(n, 1.0)
			} else {
				agg, err = ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
			}
			if err != nil {
				t.Fatal(err)
			}
			workloads := []ldp.Workload{
				ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n), ldp.Histogram(n),
			}
			snap := ingestSkewed(t, agg, workloads[0], users, 23)

			pool := ldp.NewEstimatorPool()
			batch, err := pool.AnswerBatch(agg, snap, workloads, ldp.WithBatchVariance())
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(workloads) {
				t.Fatalf("got %d results for %d workloads", len(batch), len(workloads))
			}
			for i, w := range workloads {
				est, err := ldp.NewEstimator(agg, w)
				if err != nil {
					t.Fatal(err)
				}
				wantA, err := est.Answers(snap)
				if err != nil {
					t.Fatal(err)
				}
				wantV, err := est.Variance(snap)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch[i].Answers) != len(wantA) || len(batch[i].Variance) != len(wantV) {
					t.Fatalf("workload %d: result shape mismatch", i)
				}
				for j := range wantA {
					if math.Float64bits(batch[i].Answers[j]) != math.Float64bits(wantA[j]) {
						t.Fatalf("workload %d answer %d: batch %v, individual %v", i, j, batch[i].Answers[j], wantA[j])
					}
					if math.Float64bits(batch[i].Variance[j]) != math.Float64bits(wantV[j]) {
						t.Fatalf("workload %d variance %d: batch %v, individual %v", i, j, batch[i].Variance[j], wantV[j])
					}
				}
			}
			if st := pool.Stats(); st.EstimatorBuilds != 3 {
				t.Fatalf("duplicate workload should not build twice, stats: %+v", st)
			}
		})
	}
}
