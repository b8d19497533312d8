package ldp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// buildStrategyPipeline optimizes a small mechanism and returns its two
// protocol halves.
func buildStrategyPipeline(t *testing.T, n int, eps float64, seed int64) (ldp.Randomizer, ldp.Aggregator, ldp.Workload) {
	t.Helper()
	w := ldp.Histogram(n)
	mech, err := ldp.Optimize(context.Background(), w, eps,
		ldp.WithIterations(40), ldp.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rz, err := ldp.NewRandomizer(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	return rz, agg, w
}

// estimatorFor builds the read path for a test pipeline.
func estimatorFor(t testing.TB, agg ldp.Aggregator, w ldp.Workload) *ldp.Estimator {
	t.Helper()
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// mustRead unwraps an Estimator read, failing the test on error:
// mustRead(t)(est.Answers(snap)).
func mustRead(t testing.TB) func([]float64, error) []float64 {
	return func(v []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestCollectorConcurrentIngest(t *testing.T) {
	n := 8
	rz, agg, w := buildStrategyPipeline(t, n, 2.0, 21)
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	client, err := ldp.NewClient(rz)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			h := col.Handle() // half pinned, half round-robin
			for i := 0; i < perG; i++ {
				rep, err := client.Randomize(rng.Intn(n), rng)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					err = h.Ingest(rep)
				} else {
					err = col.Ingest(rep)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := col.Count(); got != goroutines*perG {
		t.Fatalf("count = %v, want %d", got, goroutines*perG)
	}
	est := estimatorFor(t, agg, w)
	if ans := mustRead(t)(est.Answers(col.Snap())); len(ans) != n {
		t.Fatal("answers shape wrong")
	}
	cons, err := est.ConsistentAnswers(col.Snap())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range cons {
		if v < -1e-9 {
			t.Fatalf("consistent answer %v negative", v)
		}
		total += v
	}
	if math.Abs(total-goroutines*perG) > 1e-6 {
		t.Fatalf("consistent total %v, want %d", total, goroutines*perG)
	}
}

// TestShardedMatchesSerial feeds the identical report stream to a
// single-goroutine Server and to a sharded Collector under heavy concurrency;
// the merged shard state must equal the serial state exactly (accumulator
// entries are integer counts, so float addition commutes without error).
func TestShardedMatchesSerial(t *testing.T) {
	n := 16
	rz, agg, w := buildStrategyPipeline(t, n, 1.0, 31)

	rng := rand.New(rand.NewSource(99))
	const total = 6000
	reports := make([]ldp.Report, total)
	for i := range reports {
		rep, err := rz.Randomize(rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}

	server, err := ldp.NewServer(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := server.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	col, err := ldp.NewCollector(agg, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := col.Handle()
			for i := g; i < total; i += goroutines {
				if err := h.Ingest(reports[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if col.Count() != server.Count() {
		t.Fatalf("count: sharded %v, serial %v", col.Count(), server.Count())
	}
	ss, cs := server.Snap().State(), col.Snap().State()
	for i := range ss {
		if ss[i] != cs[i] {
			t.Fatalf("state[%d]: sharded %v, serial %v", i, cs[i], ss[i])
		}
	}
	est := estimatorFor(t, agg, w)
	sd, cd := mustRead(t)(est.DataEstimate(server.Snap())), mustRead(t)(est.DataEstimate(col.Snap()))
	for i := range sd {
		if math.Abs(sd[i]-cd[i]) > 1e-9 {
			t.Fatalf("estimate[%d]: sharded %v, serial %v", i, cd[i], sd[i])
		}
	}
}

// TestCollectorBatchAtomicity is the regression test for the partially
// applied batch bug: a batch with an out-of-range element must leave the
// collector (and server) state completely untouched.
// The snapshot read path and its epoch rules: repeated reads of a quiescent
// collector return identical state under one epoch, every ingest is visible
// to the next read and advances the epoch by exactly one (the epoch moves iff
// the observed count moved), and the merged read matches a single-goroutine
// Server fed the same reports exactly.
func TestCollectorSnapshotCache(t *testing.T) {
	rz, agg, w := buildStrategyPipeline(t, 8, 1.0, 17)
	col, err := ldp.NewCollector(agg, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ldp.NewServer(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	ingestOne := func() {
		rep, err := rz.Randomize(rng.Intn(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	est := estimatorFor(t, agg, w)
	equal := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	if e := col.Snap().Epoch(); e != 1 {
		t.Fatalf("first observed state (empty) has epoch %d, want 1", e)
	}
	for i := 0; i < 100; i++ {
		ingestOne()
		// Several reads per write: one new state, one epoch step.
		firstSnap := col.Snap()
		first := firstSnap.State()
		if want := uint64(i + 2); firstSnap.Epoch() != want {
			t.Fatalf("step %d: epoch %d after %d observed count changes, want %d", i, firstSnap.Epoch(), i+1, want)
		}
		for j := 0; j < 3; j++ {
			again := col.Snap()
			if again.Count() != float64(i+1) || again.Epoch() != firstSnap.Epoch() || !equal(first, again.State()) {
				t.Fatalf("step %d: re-read of a quiescent collector diverged", i)
			}
		}
		if !equal(first, ref.Snap().State()) {
			t.Fatalf("step %d: merged snapshot != single-goroutine reference", i)
		}
		if !equal(mustRead(t)(est.DataEstimate(col.Snap())), mustRead(t)(est.DataEstimate(ref.Snap()))) {
			t.Fatalf("step %d: estimates diverged", i)
		}
	}
	// The snapshot is caller-owned: scribbling on it must not reach later
	// reads.
	st := col.Snap().State()
	for i := range st {
		st[i] = -1
	}
	if again := col.Snap().State(); !equal(again, ref.Snap().State()) {
		t.Fatal("mutating a returned snapshot corrupted later reads")
	}
}

// One Snap = one state-sized allocation: the shards merge straight into the
// slice the snapshot hands out. More means the read path started building
// (or copying) something else per call.
func TestCollectorSnapCacheHitAllocs(t *testing.T) {
	const n = 256
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, ldp.Histogram(n), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := col.Ingest(ldp.Report{Index: i % n}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if col.Snap().StateLen() != n {
			t.Fatal("bad snapshot")
		}
	})
	if allocs != 1 {
		t.Fatalf("Snap allocates %v times, want 1 (the merged state)", allocs)
	}
}

// Snapshots stay coherent under concurrent ingest: interleaved reads may lag
// writers but can never invent or lose reports, their (count, epoch) pairs
// obey the epoch rule — the epoch moved iff the count moved — and once
// writers stop the snapshot equals the serial reference. Run under -race in
// CI.
func TestCollectorSnapshotCacheConcurrent(t *testing.T) {
	rz, agg, w := buildStrategyPipeline(t, 8, 1.0, 19)
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 500
	reports := make([][]ldp.Report, writers)
	rng := rand.New(rand.NewSource(20))
	for i := range reports {
		reports[i] = make([]ldp.Report, perWriter)
		for j := range reports[i] {
			rep, err := rz.Randomize(rng.Intn(8), rng)
			if err != nil {
				t.Fatal(err)
			}
			reports[i][j] = rep
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A polling reader hammers the read path while writers ingest.
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		var lastCount float64
		var lastEpoch uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := col.Snap()
			var mass float64
			for _, v := range snap.State() {
				mass += v
			}
			// Strategy accumulators hold one histogram increment per
			// report, so mass must equal the count the snapshot claims —
			// a torn or half-merged view would break this.
			if math.Abs(mass-snap.Count()) > 1e-9 {
				readerErr <- errors.New("snapshot exposed a torn view (state mass != count)")
				return
			}
			// This goroutine is the only reader, so every epoch step is one
			// of its own observations: +1 when the count moved, 0 when not.
			moved := snap.Count() != lastCount || lastEpoch == 0
			if (moved && snap.Epoch() != lastEpoch+1) || (!moved && snap.Epoch() != lastEpoch) {
				readerErr <- fmt.Errorf("epoch %d → %d across count %v → %v", lastEpoch, snap.Epoch(), lastCount, snap.Count())
				return
			}
			lastCount, lastEpoch = snap.Count(), snap.Epoch()
		}
	}()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(batch []ldp.Report) {
			defer wg.Done()
			h := col.Handle()
			for _, rep := range batch {
				if err := h.Ingest(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(reports[i])
	}
	wg.Wait()
	close(stop)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}

	ref, err := ldp.NewServer(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range reports {
		if err := ref.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	final := col.Snap()
	st, count := final.State(), final.Count()
	if count != writers*perWriter {
		t.Fatalf("count %v, want %d", count, writers*perWriter)
	}
	refSt := ref.Snap().State()
	for i := range refSt {
		if st[i] != refSt[i] {
			t.Fatalf("state[%d]: concurrent %v != serial %v", i, st[i], refSt[i])
		}
	}
}

func TestCollectorBatchAtomicity(t *testing.T) {
	n := 4
	_, agg, w := buildStrategyPipeline(t, n, 2.0, 22)
	col, err := ldp.NewCollector(agg, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestBatch([]ldp.Report{{Index: 0}, {Index: 1}, {Index: 0}, {Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 4 {
		t.Fatalf("count = %v", col.Count())
	}
	before := col.Snap().State()
	// Valid prefix, invalid tail: nothing of the batch may be applied.
	if err := col.IngestBatch([]ldp.Report{{Index: 0}, {Index: 1}, {Index: 99999}}); err == nil {
		t.Fatal("expected error for out-of-range response in batch")
	}
	if col.Count() != 4 {
		t.Fatalf("failed batch mutated count: %v", col.Count())
	}
	after := col.Snap().State()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("failed batch mutated state[%d]: %v -> %v", i, before[i], after[i])
		}
	}
	// Same contract on the single-goroutine Server.
	server, err := ldp.NewServer(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.IngestBatch([]ldp.Report{{Index: 1}, {Index: 99999}}); err == nil {
		t.Fatal("expected error")
	}
	if server.Count() != 0 {
		t.Fatalf("failed batch mutated server count: %v", server.Count())
	}
	// Handle batches share the validation path.
	h := col.Handle()
	if err := h.IngestBatch([]ldp.Report{{Index: 2}, {Index: -1}}); err == nil {
		t.Fatal("expected error")
	}
	if col.Count() != 4 {
		t.Fatalf("failed handle batch mutated count: %v", col.Count())
	}
	if err := h.IngestBatch([]ldp.Report{{Index: 2}, {Index: 3}}); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 6 {
		t.Fatalf("count = %v, want 6", col.Count())
	}
}

// TestOraclesThroughPipeline is the acceptance test for the unified protocol:
// OUE, OLH and RAPPOR each run through the same streaming
// Client/Server/Collector pipeline as optimized strategies — concurrent
// sharded ingestion included — and recover the histogram.
func TestOraclesThroughPipeline(t *testing.T) {
	n := 16
	const users = 4000
	x := make([]float64, n)
	x[1], x[5], x[8] = 2000, 1500, 500
	w := ldp.Histogram(n)
	truth := w.MatVec(x)

	oracles := make([]ldp.FrequencyOracle, 0, 3)
	for _, mk := range []func(int, float64) (ldp.FrequencyOracle, error){
		ldp.NewOUE, ldp.NewOLH, ldp.NewRAPPOROracle,
	} {
		o, err := mk(n, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, o)
	}

	for _, o := range oracles {
		t.Run(o.Name(), func(t *testing.T) {
			client, err := ldp.NewClient(o) // an oracle is its own Randomizer
			if err != nil {
				t.Fatal(err)
			}
			col, err := ldp.NewCollector(o, w, 0) // ... and its own Aggregator
			if err != nil {
				t.Fatal(err)
			}
			// Users arrive over 4 concurrent handler goroutines.
			const goroutines = 4
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					h := col.Handle()
					for u := 0; u < n; u++ {
						for j := g; j < int(x[u]); j += goroutines {
							rep, err := client.Randomize(u, rng)
							if err != nil {
								t.Error(err)
								return
							}
							if err := h.Ingest(rep); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if col.Count() != users {
				t.Fatalf("count = %v, want %d", col.Count(), users)
			}
			reader := estimatorFor(t, o, w)
			est := mustRead(t)(reader.Answers(col.Snap()))
			// Noise floor at ε=4, N=4000: well under 300 per cell for every
			// oracle here.
			for i := range truth {
				if math.Abs(est[i]-truth[i]) > 300 {
					t.Fatalf("%s: answer[%d] = %v, truth %v", o.Name(), i, est[i], truth[i])
				}
			}
			cons, err := reader.ConsistentAnswers(col.Snap())
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			for _, v := range cons {
				total += v
			}
			if math.Abs(total-users) > 1e-6 {
				t.Fatalf("%s: consistent total %v, want %d", o.Name(), total, users)
			}
		})
	}
}

// TestOracleBatchAtomicity covers validate-before-mutate for a non-index
// mechanism: a malformed unary report in a batch leaves the state untouched.
func TestOracleBatchAtomicity(t *testing.T) {
	oue, err := ldp.NewOUE(8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(oue, ldp.Histogram(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := ldp.Report{Bits: ldp.NewBitVec(8)}
	good.Bits.Set(3)
	bad := ldp.Report{Bits: ldp.NewBitVec(5)}
	if err := col.IngestBatch([]ldp.Report{good, bad}); err == nil {
		t.Fatal("expected error for malformed report in batch")
	}
	if col.Count() != 0 {
		t.Fatalf("failed batch mutated count: %v", col.Count())
	}
	for i, v := range col.Snap().State() {
		if v != 0 {
			t.Fatalf("failed batch mutated state[%d] = %v", i, v)
		}
	}
}

func TestProductWorkloadFacade(t *testing.T) {
	p := ldp.Product(ldp.AllRange(4), ldp.AllRange(4))
	if p.Domain() != 16 || p.Queries() != 100 {
		t.Fatalf("2-D range workload shape: n=%d p=%d", p.Domain(), p.Queries())
	}
	mech, err := ldp.Optimize(context.Background(), p, 1.0,
		ldp.WithIterations(60), ldp.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	if err := mech.Strategy().Validate(1e-7); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeForPriorFacade(t *testing.T) {
	n := 8
	w := ldp.Histogram(n)
	prior := make([]float64, n)
	prior[0], prior[1] = 0.7, 0.3
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithPrior(prior), ldp.WithIterations(150), ldp.WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	if mech.Name() != "Optimized (prior)" {
		t.Fatalf("name = %q", mech.Name())
	}
	vp, err := ldp.Evaluate(mech, w)
	if err != nil {
		t.Fatal(err)
	}
	// Concentrated types must enjoy lower variance than the ignored tail.
	if vp.PerUser[0] >= vp.PerUser[n-1] {
		t.Fatalf("prior-favored type variance %v not below tail %v", vp.PerUser[0], vp.PerUser[n-1])
	}
}

func TestOptimizeBestFacade(t *testing.T) {
	w := ldp.Prefix(8)
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithIterations(80), ldp.WithSeed(25), ldp.WithWarmStarts())
	if err != nil {
		t.Fatal(err)
	}
	optSC, err := ldp.SampleComplexity(mech, w, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Must beat (or match) every factorization competitor even at this tiny
	// iteration budget — that is WithWarmStarts' contract.
	ms, err := ldp.Competitors(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Name() == "Matrix Mechanism (L1)" || m.Name() == "Matrix Mechanism (L2)" {
			continue // additive mechanisms are not warm-start candidates
		}
		sc, err := ldp.SampleComplexity(m, w, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if optSC > sc*1.05 {
			t.Fatalf("WithWarmStarts (%v) worse than %s (%v)", optSC, m.Name(), sc)
		}
	}
}
