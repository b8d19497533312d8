package ldp_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// An estimator must reject a snapshot from a different mechanism — wrong
// family, wrong matrix (digest), or wrong width — instead of silently
// mis-reconstructing it.
func TestEstimatorRejectsForeignSnapshot(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	s1 := baselines.RandomizedResponse(n, 1.0).Strategy()
	s2 := baselines.RandomizedResponse(n, 1.0).Strategy()
	d := 0.1 / float64(n)
	s2.Q.Set(0, 0, s2.Q.At(0, 0)-d)
	s2.Q.Set(1, 0, s2.Q.At(1, 0)+d)
	agg1, err := ldp.NewAggregator(s1)
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := ldp.NewAggregator(s2)
	if err != nil {
		t.Fatal(err)
	}
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	col1, err := ldp.NewCollector(agg1, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap1 := col1.Snap()

	// Same mechanism: accepted.
	est1, err := ldp.NewEstimator(agg1, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := est1.Check(snap1); err != nil {
		t.Fatalf("own snapshot rejected: %v", err)
	}
	if _, err := est1.Answers(snap1); err != nil {
		t.Fatal(err)
	}

	// Same shape and ε, different matrix: the digest is the only separator.
	est2, err := ldp.NewEstimator(agg2, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est2.Answers(snap1); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch not rejected: %v", err)
	}

	// Different family over the same domain and width.
	estOUE, err := ldp.NewEstimator(oue, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := estOUE.DataEstimate(snap1); err == nil {
		t.Fatal("cross-family snapshot accepted")
	}

	// Different width.
	oueWide, err := ldp.NewOUE(2*n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	colWide, err := ldp.NewCollector(oueWide, ldp.Histogram(2*n), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := estOUE.Answers(colWide.Snap()); err == nil {
		t.Fatal("wrong-width snapshot accepted")
	}
}

// The strategy path of Estimator.Variance implements Theorem 3.4 row-wise:
// feeding the expected response histogram of a single-type population
// (acc = N·Q·e_u) must reproduce N times the per-user variance of
// VariancesExplicit, summed over queries — a deterministic cross-check of
// the closed form against the reference implementation.
func TestStrategyVarianceMatchesTheorem(t *testing.T) {
	const n, N = 8, 1000.0
	w := ldp.Prefix(n)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.OptimalV(workload.Materialize(w))
	if err != nil {
		t.Fatal(err)
	}
	vp := strategy.VariancesExplicit(v, s.Q, s.Eps)
	for u := 0; u < n; u++ {
		state := make([]float64, s.Outputs())
		for o := range state {
			state[o] = N * s.Q.At(o, u)
		}
		snap := ldp.NewSnapshot(state, N, 1, ldp.MechanismInfoOf(agg))
		vars, err := est.Variance(snap)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, x := range vars {
			total += x
		}
		want := N * vp.PerUser[u]
		if math.Abs(total-want) > 1e-6*(1+want) {
			t.Fatalf("type %d: Σ per-query variance %v, Theorem 3.4 gives %v", u, total, want)
		}
	}
}

// The oracle path is the Wang et al. closed form: on the Histogram workload
// each query's variance is exactly CountVariance(x̂_i, N), the count's own
// variance plugged in at its estimate.
func TestOracleVarianceClosedForm(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ldp.OracleByName(name, n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		est, err := ldp.NewEstimator(o, w)
		if err != nil {
			t.Fatal(err)
		}
		col, err := ldp.NewCollector(o, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			rep, err := o.Randomize(i%n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
		snap := col.Snap()
		vars, err := est.Variance(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		xhat, err := est.DataEstimate(snap)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vars {
			if want := o.CountVariance(xhat[i], snap.Count()); v != want {
				t.Fatalf("%s: variance[%d] = %v, want CountVariance(%v, %v) = %v", name, i, v, xhat[i], snap.Count(), want)
			}
		}
	}
}

func TestConfidenceIntervalShape(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ldp.NewEstimator(oue, w)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(oue, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		rep, err := oue.Randomize(i%n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snap()
	answers, err := est.Answers(snap)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := est.ConfidenceIntervals(snap, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := est.ConfidenceIntervals(snap, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range answers {
		if math.Abs((narrow[i].Low+narrow[i].High)/2-answers[i]) > 1e-9 {
			t.Fatalf("interval %d not centered on the unbiased answer", i)
		}
		if wide[i].High-wide[i].Low <= narrow[i].High-narrow[i].Low {
			t.Fatalf("99%% interval no wider than 90%% at query %d", i)
		}
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := est.ConfidenceIntervals(snap, bad); err == nil {
			t.Fatalf("confidence level %v accepted", bad)
		}
	}
	// An empty snapshot has zero variance and degenerate intervals, not NaNs.
	empty, err := ldp.NewCollector(oue, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	cis, err := est.ConfidenceIntervals(empty.Snap(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i, ci := range cis {
		if ci.Low != 0 || ci.High != 0 {
			t.Fatalf("empty-snapshot interval %d: %+v", i, ci)
		}
	}
}
