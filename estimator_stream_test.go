package ldp_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/linalg"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The numeric contract of the read path, stated once: every per-query
// variance the estimator returns equals the materialized closed form computed
// here, independently, from the workload's explicit matrix — Theorem 3.4
// row-wise over V = W·B for a strategy mechanism (Σ_o y_o·V_io² − (V_i·y)²/N),
// N·v·‖w_i‖² for a frequency oracle — to relative 1e-12. Rows whose variance
// is 0 in exact arithmetic (a full-range query's answer is the report count,
// whatever the reports) come out as round-off residue of either form, so the
// comparison carries an absolute floor scaled to the terms being cancelled;
// nothing may assert an exact zero. AnswerStream must pair those variances
// with exactly Answers' entries, in order.
func TestStreamMatchesMaterialized(t *testing.T) {
	const n, users = 16, 400
	explicit, err := ldp.NewWorkload("Explicit", [][]float64{
		{1, 0, -2.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3},
		{0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	workloads := []ldp.Workload{
		ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n),
		ldp.WidthRange(n, 3), ldp.Parity(4), ldp.KWayMarginals(4, 2),
		ldp.Product(ldp.Prefix(4), ldp.AllRange(4)),
		ldp.Stacked("Stacked", []ldp.Workload{ldp.Prefix(n), ldp.WidthRange(n, 5)}, []float64{1, 0.25}),
		explicit,
	}
	optimized, err := ldp.OptimizeStrategy(context.Background(), ldp.Prefix(n), 1.0, ldp.WithIterations(40), ldp.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	aggs := map[string]func() (ldp.Aggregator, error){
		"oracle": func() (ldp.Aggregator, error) { return ldp.NewOUE(n, 1.0) },
		"strategy": func() (ldp.Aggregator, error) {
			return ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
		},
		"optimized": func() (ldp.Aggregator, error) { return ldp.NewAggregator(optimized) },
	}
	for name, mk := range aggs {
		t.Run(name, func(t *testing.T) {
			agg, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			snap := ingestSkewed(t, agg, workloads[0], users, 41)
			for _, w := range workloads {
				est, err := ldp.NewEstimator(agg, w)
				if err != nil {
					t.Fatal(err)
				}
				wantA, err := est.Answers(snap)
				if err != nil {
					t.Fatal(err)
				}
				wantV, floor := referenceVariance(t, agg, w, snap)
				rows := 0
				err = est.AnswerStream(snap, 0.9, func(qa ldp.QueryAnswer) bool {
					if qa.Index != rows {
						t.Fatalf("%s: stream out of order: row %d at position %d", w.Name(), qa.Index, rows)
					}
					if math.Float64bits(qa.Answer) != math.Float64bits(wantA[qa.Index]) {
						t.Fatalf("%s answer %d: streamed %v, Answers %v", w.Name(), qa.Index, qa.Answer, wantA[qa.Index])
					}
					if want := wantV[qa.Index]; math.Abs(qa.Variance-want) > 1e-12*want+floor[qa.Index] {
						t.Fatalf("%s variance %d: streamed %v, reference %v (off by %g)", w.Name(), qa.Index, qa.Variance, want, qa.Variance-want)
					}
					if qa.Variance < 0 || qa.CI.Low > qa.Answer || qa.CI.High < qa.Answer {
						t.Fatalf("%s row %d: variance %v, CI %v around %v", w.Name(), qa.Index, qa.Variance, qa.CI, qa.Answer)
					}
					rows++
					return true
				})
				if err != nil {
					t.Fatalf("%s: %v", w.Name(), err)
				}
				if rows != len(wantA) {
					t.Fatalf("%s: streamed %d of %d rows", w.Name(), rows, len(wantA))
				}
			}
		})
	}
}

// referenceVariance computes the closed-form per-query variance of w at snap
// the expensive, obvious way — from the materialized W (and V = W·B) — along
// with each row's absolute comparison floor: 1e-12 of the larger of the two
// terms whose difference the variance is.
func referenceVariance(t *testing.T, agg ldp.Aggregator, w ldp.Workload, snap ldp.Snapshot) (want, floor []float64) {
	t.Helper()
	wm := workload.Materialize(w)
	want, floor = make([]float64, wm.Rows()), make([]float64, wm.Rows())
	y, count := snap.State(), snap.Count()
	if o, ok := agg.(ldp.FrequencyOracle); ok {
		for i := range want {
			var norm2 float64
			for _, c := range wm.Row(i) {
				norm2 += c * c
			}
			want[i] = count * o.VariancePerUser() * norm2
		}
		return want, floor
	}
	v, err := agg.(interface{ Strategy() *ldp.Strategy }).Strategy().OptimalV(wm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		var lin, dot float64
		for o, vo := range v.Row(i) {
			lin += y[o] * vo * vo
			dot += y[o] * vo
		}
		want[i] = lin - dot*dot/count
		floor[i] = 1e-12 * lin
	}
	return want, floor
}

// Early termination: returning false from the callback stops the stream
// without error.
func TestStreamEarlyStop(t *testing.T) {
	const n = 16
	agg, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	snap := ingestSkewed(t, agg, ldp.Histogram(n), 100, 5)
	est, err := ldp.NewEstimator(agg, ldp.AllRange(n))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := est.AnswerStream(snap, 0.95, func(ldp.QueryAnswer) bool {
		seen++
		return seen < 7
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("stream continued past the stop: %d rows", seen)
	}
}

// Acceptance: AllRange at n=512 declares 131,328 queries over a 512-wide
// domain — 67,239,936 entries of W, a size at which nothing p-row-shaped
// should ever be built. Every read shape answers it — the stream, and the
// Variance and ConfidenceIntervals slices collected from it, bit for bit.
// The first n rows of AllRange are exactly Prefix's rows (ranges [0..j]), so
// a slice of the result is cross-checked bit-for-bit against Prefix's read.
func TestAnswerStreamBeyondMaterializationBound(t *testing.T) {
	const n, users, level = 512, 800, 0.95
	agg, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	snap := ingestSkewed(t, agg, ldp.Histogram(n), users, 61)

	wide := ldp.AllRange(n)
	est, err := ldp.NewEstimator(agg, wide)
	if err != nil {
		t.Fatal(err)
	}
	total := wide.Queries()
	if total != n*(n+1)/2 {
		t.Fatalf("AllRange(%d) declares %d queries", n, total)
	}
	vars, err := est.Variance(snap)
	if err != nil {
		t.Fatal(err)
	}
	cis, err := est.ConfidenceIntervals(snap, level)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != total || len(cis) != total {
		t.Fatalf("Variance returned %d rows, ConfidenceIntervals %d, want %d", len(vars), len(cis), total)
	}

	prefixEst, err := ldp.NewEstimator(agg, ldp.Prefix(n))
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := prefixEst.Answers(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := prefixEst.Variance(snap)
	if err != nil {
		t.Fatal(err)
	}

	rows := 0
	err = est.AnswerStream(snap, level, func(qa ldp.QueryAnswer) bool {
		if qa.Index < n {
			// Range [0..j] ≡ Prefix row j.
			if math.Float64bits(qa.Answer) != math.Float64bits(wantA[qa.Index]) {
				t.Fatalf("row %d answer: streamed %v, prefix %v", qa.Index, qa.Answer, wantA[qa.Index])
			}
			if math.Float64bits(qa.Variance) != math.Float64bits(wantV[qa.Index]) {
				t.Fatalf("row %d variance: streamed %v, prefix %v", qa.Index, qa.Variance, wantV[qa.Index])
			}
		}
		if math.Float64bits(qa.Variance) != math.Float64bits(vars[qa.Index]) || qa.CI != cis[qa.Index] {
			t.Fatalf("row %d: streamed (%v, %v), collected (%v, %v)", qa.Index, qa.Variance, qa.CI, vars[qa.Index], cis[qa.Index])
		}
		if qa.Variance < 0 || math.IsNaN(qa.Variance) {
			t.Fatalf("row %d: invalid variance %v", qa.Index, qa.Variance)
		}
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != total {
		t.Fatalf("streamed %d of %d rows", rows, total)
	}
}

// One snapshot, four read shapes, one number: Variance, VarianceStream, a
// batch that reads two other workloads through the same variance form first,
// and a served POST /query must return identical bits — each entry of the
// form is a fixed-order sum of its own, whichever query reaches it first.
// The form's on-demand fill is per-call state: concurrent reads of the one
// shared Estimator must agree too, and CI's -race run of this test is what
// proves they share nothing.
func TestVarianceReadShapesBitIdentical(t *testing.T) {
	const n, users = 16, 500
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, ldp.Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	rz := randomizerFor(t, agg)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < users; i++ {
		rep, err := rz.Randomize(rng.Intn(n/2), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snap()

	w := ldp.AllRange(n)
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Variance(snap)
	if err != nil {
		t.Fatal(err)
	}
	same := func(shape string, i int, v float64) {
		t.Helper()
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s row %d: %v, Variance %v", shape, i, v, want[i])
		}
	}
	rows := 0
	if err := est.VarianceStream(snap, func(i int, v float64) bool { same("VarianceStream", i, v); rows++; return true }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := est.Variance(snap)
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Errorf("concurrent Variance row %d: %v, want %v", i, v, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	batch, err := ldp.NewEstimatorPool().AnswerBatch(agg, snap,
		[]ldp.Workload{ldp.WidthRange(n, 4), ldp.Prefix(n), w}, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range batch[2].Variance {
		same("AnswerBatch", i, v)
	}
	c, err := transport.NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	if _, err := c.PostQuery(context.Background(), transport.QueryRequest{Workload: "AllRange", WantVariance: true},
		func(row transport.QueryRow) bool { same("POST /query", row.Index, row.Variance); served++; return true }); err != nil {
		t.Fatal(err)
	}
	if p := w.Queries(); rows != p || len(batch[2].Variance) != p || served != p {
		t.Fatalf("rows: stream %d, batch %d, served %d, want %d", rows, len(batch[2].Variance), served, p)
	}
}

// stackedRR is randomized response with every output split into `copies`
// equally likely outputs: an n×(copies·n) strategy, the m = 4n shape the
// optimizer produces, without running it.
func stackedRR(n, copies int, eps float64) *ldp.Strategy {
	q := baselines.RandomizedResponse(n, eps).Strategy().Q.Scale(1 / float64(copies))
	var data []float64
	for i := 0; i < copies; i++ {
		data = append(data, q.Data()...)
	}
	return strategy.New(linalg.NewFrom(copies*q.Rows(), q.Cols(), data), eps)
}

// The cost shape of a variance read. Nothing it allocates scales with the
// number of queries p or the domain: AllRange at n=32 (528 rows) and n=96
// (4,656 rows) make the same number of allocations. And the variance form is
// filled only as far as the rows' non-zero spans reach: at n=256, m=1024 a
// Histogram read touches the diagonal (O(n·m)) where AllRange's touches the
// whole triangle (O(n²·m)) — two orders of magnitude apart, so a 10× floor is
// coarse enough for any machine and still fails an eager build of the form.
func TestVarianceReadCostShape(t *testing.T) {
	read := func(agg ldp.Aggregator, w ldp.Workload) func() {
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			t.Fatal(err)
		}
		state := make([]float64, agg.StateLen())
		for i := range state {
			state[i] = float64(1 + i%7)
		}
		snap := ldp.NewSnapshot(state, linalg.Sum(state), 1, ldp.MechanismInfoOf(agg))
		return func() {
			if err := est.VarianceStream(snap, func(int, float64) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(n int) float64 {
		agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, read(agg, ldp.AllRange(n)))
	}
	if small, large := allocs(32), allocs(96); small != large {
		t.Fatalf("VarianceStream over AllRange allocates %v times at n=32 and %v at n=96: something scales with the workload", small, large)
	}

	const n = 256
	agg, err := ldp.NewAggregator(stackedRR(n, 4, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	fastest := func(runs int, f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < runs; i++ {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	hist, all := fastest(5, read(agg, ldp.Histogram(n))), fastest(1, read(agg, ldp.AllRange(n)))
	t.Logf("n=%d m=%d variance read: Histogram %v, AllRange %v", n, agg.StateLen(), hist, all)
	if hist*10 > all {
		t.Fatalf("Histogram variance read took %v, AllRange %v: want ≥ 10× apart — is the variance form built eagerly?", hist, all)
	}
}
