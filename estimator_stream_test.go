package ldp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
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
// here, independently, from the workload's explicit matrix — Theorem 3.4 per
// type, plugged in at x̂ = B·y, row-wise over V = W·B for a strategy mechanism
// (Σ_o y_o·V_io² − Σ_j W_ij²·x̂_j), Σ_j W_ij²·CountVariance(x̂_j, N) for a
// frequency oracle — to relative 1e-12. Rows whose variance is 0 in exact
// arithmetic (a full-range query's answer is the report count, whatever the
// reports) come out as round-off residue of either form, so the comparison
// carries an absolute floor scaled to the terms being cancelled; nothing may
// assert an exact zero. AnswerStream must pair those variances with exactly
// Answers' entries, in order.
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
	xhat := agg.EstimateCounts(y, count)
	if o, ok := agg.(ldp.FrequencyOracle); ok {
		for i := range want {
			for j, c := range wm.Row(i) {
				want[i] += c * c * o.CountVariance(xhat[j], count)
			}
		}
		return want, floor
	}
	v, err := agg.(interface{ Strategy() *ldp.Strategy }).Strategy().OptimalV(wm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		var quad, diag float64
		for o, vo := range v.Row(i) {
			quad += y[o] * vo * vo
		}
		for j, c := range wm.Row(i) {
			diag += c * c * xhat[j]
		}
		want[i] = quad - diag
		floor[i] = 1e-12 * max(quad, math.Abs(diag))
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

// The variance form carries each row's tail sums d_j = Σ_{k>j} w_k·M_jk into
// the next row when that row extends the last one. The property:
// over random rows that extend, repeat, shrink or edit the row before them,
// start elsewhere or are all zero, every variance has the bits of the direct
// form (scalarForm below, the form computed without carried sums), through VarianceStream and through a batch whose workloads
// share one form. Random strategies keep B's entries generic, so a changed
// product or a reordered sum shows in the last bits. At n = 64 the fill of M
// fans out, over three blocks of rows whatever the machine.
func TestVarianceCarriedSumsBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rng := rand.New(rand.NewSource(49))
	weights := []float64{-1, 0.5, 1, 3}
	entry := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return weights[rng.Intn(len(weights))]
	}
	span := func(w []float64) (lo, hi int) {
		for hi = len(w); hi > 0 && w[hi-1] == 0; hi-- {
		}
		for lo = 0; lo < hi && w[lo] == 0; lo++ {
		}
		return lo, hi
	}
	randomRows := func(n, p int) [][]float64 {
		rows := make([][]float64, p)
		prev := make([]float64, n)
		for i := range rows {
			w := slices.Clone(prev)
			lo, hi := span(w)
			switch rng.Intn(6) {
			case 0: // extend
				for k, end := hi, hi+1+rng.Intn(n-hi+1); k < min(end, n); k++ {
					w[k] = entry()
				}
			case 1: // repeat
			case 2: // shrink
				if hi > lo {
					clear(w[lo+1+rng.Intn(hi-lo):])
				}
			case 3: // change one overlapping weight, then maybe extend
				if hi > lo {
					k := lo + rng.Intn(hi-lo)
					for old := w[k]; w[k] == old; {
						w[k] = weights[rng.Intn(len(weights))]
					}
				}
				if rng.Intn(2) == 0 && hi < n {
					w[hi] = entry()
				}
			case 4: // start elsewhere
				clear(w)
				lo = rng.Intn(n)
				w[lo] = weights[rng.Intn(len(weights))]
				for k := lo + 1; k < min(lo+1+rng.Intn(n), n); k++ {
					w[k] = entry()
				}
			case 5: // all zero
				clear(w)
			}
			rows[i], prev = w, w
		}
		return rows
	}
	for _, n := range []int{1, 2, 5, 33, 64} {
		m := 4 * n
		q := linalg.New(m, n)
		for u := 0; u < n; u++ {
			var sum float64
			for o := 0; o < m; o++ {
				q.Set(o, u, 1+rng.Float64())
				sum += q.At(o, u)
			}
			for o := 0; o < m; o++ {
				q.Set(o, u, q.At(o, u)/sum)
			}
		}
		s := strategy.New(q, math.Log(4))
		recon, err := s.Reconstruction()
		if err != nil {
			t.Fatal(err)
		}
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			t.Fatal(err)
		}
		var ws []ldp.Workload
		for i := 0; i < 3; i++ {
			w, err := ldp.NewWorkload(fmt.Sprintf("Carried%d", i), randomRows(n, 4*n+8))
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		for _, zero := range []bool{false, true} {
			state := make([]float64, m)
			if !zero {
				for o := range state {
					if rng.Intn(4) > 0 {
						state[o] = float64(rng.Intn(20))
					}
				}
			}
			snap := ldp.NewSnapshot(state, linalg.Sum(state), 1, ldp.MechanismInfoOf(agg))
			ref := newScalarForm(recon.B, state)
			same := func(how string, w ldp.Workload, i int, got float64) {
				t.Helper()
				row := make([]float64, n)
				w.QueryRow(i, row)
				want := ref.of(row)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d count=%v %s %s row %d %v: variance %v, direct form %v",
						n, snap.Count(), how, w.Name(), i, row, got, want)
				}
			}
			for _, w := range ws {
				est, err := ldp.NewEstimator(agg, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := est.VarianceStream(snap, func(i int, v float64) bool { same("VarianceStream", w, i, v); return true }); err != nil {
					t.Fatal(err)
				}
			}
			batch, err := ldp.NewEstimatorPool().AnswerBatch(agg, snap, ws, ldp.WithBatchVariance())
			if err != nil {
				t.Fatal(err)
			}
			for k, ba := range batch {
				for i, v := range ba.Variance {
					same("AnswerBatch", ws[k], i, v)
				}
			}
		}
	}
}

// The variance form reads a row only inside the span its QueryRow reports.
// Every family's spans — closed-form, located in O(1), trimmed after a
// weight or a Kronecker product, scanned — are held here to the direct form,
// which scans nothing, bit for bit over a random strategy: a span that drops
// or adds a column moves the variance.
func TestVarianceFamilySpansBitIdentical(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(50))
	m := 4 * n
	q := linalg.New(m, n)
	for u := 0; u < n; u++ {
		var sum float64
		for o := 0; o < m; o++ {
			q.Set(o, u, 1+rng.Float64())
			sum += q.At(o, u)
		}
		for o := 0; o < m; o++ {
			q.Set(o, u, q.At(o, u)/sum)
		}
	}
	s := strategy.New(q, math.Log(4))
	recon, err := s.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]float64, m)
	for o := range state {
		state[o] = float64(rng.Intn(20))
	}
	snap := ldp.NewSnapshot(state, linalg.Sum(state), 1, ldp.MechanismInfoOf(agg))
	ref := newScalarForm(recon.B, state)
	explicit, err := ldp.NewWorkload("Edges", [][]float64{
		{0, 0, 0, 1, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 1, -2, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3},
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []ldp.Workload{
		ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n), ldp.WidthRange(n, 5),
		ldp.Parity(4), ldp.AllMarginals(4), ldp.KWayMarginals(4, 2), explicit,
		ldp.Stacked("Stacked", []ldp.Workload{ldp.AllRange(n), explicit, ldp.Prefix(n)}, []float64{0.5, 3, 1}),
		ldp.Product(ldp.Prefix(4), ldp.AllRange(4)),
		ldp.Product(ldp.WidthRange(4, 2), ldp.Histogram(4)),
	} {
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, n)
		if err := est.VarianceStream(snap, func(i int, got float64) bool {
			w.QueryRow(i, row)
			if want := ref.of(row); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s row %d %v: variance %v, direct form %v", w.Name(), i, row, got, want)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// scalarForm is the strategy path's variance form in its direct form: x̂ =
// B·y row by row, each entry M_jk (k ≥ j) of the upper triangle a scalar sum
// Σ_o y_o·B_jo·B_ko in ascending o, and each row's wᵀ(M − diag(x̂))w as dot
// products from the first column. Each entry is a fixed-order sum of its own,
// so filling the triangle up front gives the bits a fill of only the entries
// a row reaches gives.
type scalarForm struct {
	xhat []float64
	m    [][]float64
}

func newScalarForm(b *linalg.Matrix, y []float64) *scalarForm {
	n := b.Rows()
	f := &scalarForm{xhat: b.MulVec(y), m: make([][]float64, n)}
	for j := range f.m {
		f.m[j] = make([]float64, n)
		bj := b.Row(j)
		for k := j; k < n; k++ {
			bk := b.Row(k)
			var s float64
			for o, yo := range y {
				s += yo * bj[o] * bk[o]
			}
			f.m[j][k] = s
		}
	}
	return f
}

func (f *scalarForm) of(w []float64) float64 {
	hi := len(w)
	for hi > 0 && w[hi-1] == 0 {
		hi--
	}
	var v float64
	for j, wj := range w[:hi] {
		if wj == 0 {
			continue
		}
		row := f.m[j][:hi]
		v += wj * (wj*(row[j]-f.xhat[j]) + 2*linalg.Dot(w[j+1:hi], row[j+1:]))
	}
	if v < 0 {
		v = 0
	}
	return v
}

// countingOracle counts the data estimates x̂ computed through it.
type countingOracle struct {
	ldp.FrequencyOracle
	estimates int
}

func (c *countingOracle) EstimateCounts(state []float64, count float64) []float64 {
	c.estimates++
	return c.FrequencyOracle.EstimateCounts(state, count)
}

func (c *countingOracle) Epsilon() float64 {
	return c.FrequencyOracle.(interface{ Epsilon() float64 }).Epsilon()
}

// A read that yields answers and variances checks its snapshot and computes
// x̂ once, the answers and the variance form both reading it: AnswerStream at
// any level, and AnswerBatch with variances once per workload.
func TestReadsEstimateOnce(t *testing.T) {
	const n = 32
	oue, err := ldp.NewOUE(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := ingestSkewed(t, oue, ldp.Histogram(n), 600, 5)
	agg := &countingOracle{FrequencyOracle: oue}
	est, err := ldp.NewEstimator(agg, ldp.Prefix(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{0, 0.95} {
		agg.estimates = 0
		if err := est.AnswerStream(snap, level, func(ldp.QueryAnswer) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if agg.estimates != 1 {
			t.Fatalf("AnswerStream at level %v computed x̂ %d times, want 1", level, agg.estimates)
		}
	}
	workloads := []ldp.Workload{ldp.Histogram(n), ldp.Prefix(n), ldp.AllRange(n)}
	agg.estimates = 0
	if _, err := ldp.NewEstimatorPool().AnswerBatch(agg, snap, workloads, ldp.WithBatchVariance()); err != nil {
		t.Fatal(err)
	}
	if agg.estimates != len(workloads) {
		t.Fatalf("AnswerBatch with variances over %d workloads computed x̂ %d times, want %d", len(workloads), agg.estimates, len(workloads))
	}
}
