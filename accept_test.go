// Statistical acceptance tests: every Randomizer/Aggregator pair runs the
// complete protocol end-to-end at a fixed seed over N = 50,000 reports, and
// the resulting frequency estimates must land inside an error envelope
// precomputed from the mechanism's closed-form variance (Theorem 3.4 for
// strategy mechanisms, the Wang et al. constants for the oracles). The
// envelopes are wide enough (6σ per cell, 4× the expected total squared
// error) that seed-to-seed noise can never trip them, but a mechanism
// regression — a broken estimator constant, a hash family without the
// collision property, a biased randomizer — shifts estimates by O(N) and
// fails loudly instead of silently degrading accuracy.
package ldp_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

const (
	acceptN     = 32    // domain size
	acceptUsers = 50000 // reports per mechanism
	acceptSeed  = 41
	// Cell envelopes are zSigma standard deviations of the cell estimator;
	// varSlack absorbs the frequency-dependent part of the per-cell variance
	// that the f→0 closed forms drop (for OUE the true-cell term p(1−p)
	// exceeds q(1−q) by ≤ 1.3× at ε=1).
	zSigma   = 6.0
	varSlack = 1.5
	// The observed total squared error may exceed its expectation by at most
	// tseSlack — a Markov-style margin; real regressions overshoot it by
	// orders of magnitude.
	tseSlack = 4.0
)

// acceptData is the fixed skewed histogram every mechanism is measured on:
// half the mass on type 0, then geometrically decaying, remainder on the
// last type — integer counts summing exactly to acceptUsers.
func acceptData() []float64 {
	x := make([]float64, acceptN)
	remaining := float64(acceptUsers)
	share := 0.5
	for v := 0; v < acceptN-1; v++ {
		c := math.Floor(float64(acceptUsers) * share)
		if c > remaining {
			c = remaining
		}
		x[v] = c
		remaining -= c
		share /= 2
		if share < 1.0/float64(acceptUsers) {
			break
		}
	}
	x[acceptN-1] += remaining
	return x
}

// acceptCase is one mechanism with its theory-derived envelope.
type acceptCase struct {
	name string
	rz   ldp.Randomizer
	agg  ldp.Aggregator
	// expectedTSE is the closed-form expected total squared error of the
	// histogram estimate over acceptData.
	expectedTSE float64
	// cellSigma is the standard deviation bound of one cell's estimator.
	cellSigma float64
}

func acceptCases(t *testing.T, x []float64) []acceptCase {
	t.Helper()
	var cases []acceptCase

	// Strategy-matrix mechanism: randomized response at ε=1 (deterministic
	// fixture; an optimized matrix exercises the identical aggregation
	// path). Theorem 3.4 gives its exact expected error on x.
	s := baselines.RandomizedResponse(acceptN, 1.0).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	w := ldp.Histogram(acceptN)
	vp, err := s.Variances(w.Gram(), w.Queries())
	if err != nil {
		t.Fatal(err)
	}
	tse := vp.OnData(x)
	cases = append(cases, acceptCase{
		name: "strategy-rr", rz: rz, agg: agg,
		expectedTSE: tse,
		// One cell's variance is at most the total over all cells.
		cellSigma: math.Sqrt(tse),
	})

	// Frequency oracles: per-cell variance N·VariancePerUser (f→0 form,
	// inflated by varSlack for occupied cells), total n times that.
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ldp.OracleByName(name, acceptN, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		perCell := float64(acceptUsers) * o.VariancePerUser() * varSlack
		cases = append(cases, acceptCase{
			name: name, rz: o, agg: o,
			expectedTSE: float64(acceptN) * perCell,
			cellSigma:   math.Sqrt(perCell),
		})
	}
	return cases
}

func TestStatisticalAcceptance(t *testing.T) {
	x := acceptData()
	var total float64
	for _, v := range x {
		total += v
	}
	if total != acceptUsers {
		t.Fatalf("fixture mass %v, want %d", total, acceptUsers)
	}
	w := ldp.Histogram(acceptN)
	for _, c := range acceptCases(t, x) {
		t.Run(c.name, func(t *testing.T) {
			est, err := ldp.SimulateProtocol(c.rz, c.agg, w, x, acceptSeed)
			if err != nil {
				t.Fatal(err)
			}
			cellBound := zSigma * c.cellSigma
			var tse, sum float64
			for v := range x {
				d := est[v] - x[v]
				tse += d * d
				sum += est[v]
				if math.Abs(d) > cellBound {
					t.Errorf("count[%d] estimate %.1f is %.1f off the truth %.0f — outside the %.1f envelope",
						v, est[v], d, x[v], cellBound)
				}
			}
			if tse > tseSlack*c.expectedTSE {
				t.Errorf("total squared error %.0f exceeds %.0f (%.0f expected × %.1f slack)",
					tse, tseSlack*c.expectedTSE, c.expectedTSE, tseSlack)
			}
			// The estimated total mass must track N as well: a bias that
			// cancels across cells in TSE still shows up here.
			if math.Abs(sum-acceptUsers) > zSigma*math.Sqrt(float64(acceptN))*c.cellSigma {
				t.Errorf("estimated total %.1f drifts from the true %d users", sum, acceptUsers)
			}
			t.Logf("%s: TSE %.0f (expected %.0f), max cell envelope ±%.1f", c.name, tse, c.expectedTSE, cellBound)
		})
	}
}

// TestAcceptanceEnvelopeIsSharp guards the guard: the envelope must be tight
// enough that a genuinely broken mechanism cannot hide inside it. A
// deliberately mis-calibrated OUE estimator (the pre-fix q of a neighboring
// ε) must land far outside the envelope used above.
func TestAcceptanceEnvelopeIsSharp(t *testing.T) {
	o, err := ldp.NewOUE(acceptN, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate under a mechanism whose channel constants are wrong by one
	// ε step — the kind of silent miscalibration the acceptance test exists
	// to catch.
	wrong, err := ldp.NewOUE(acceptN, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	x := acceptData()
	est, err := ldp.SimulateProtocol(o, wrong, ldp.Histogram(acceptN), x, acceptSeed)
	if err != nil {
		t.Fatal(err)
	}
	perCell := float64(acceptUsers) * o.VariancePerUser() * varSlack
	cellBound := zSigma * math.Sqrt(perCell)
	worst := 0.0
	for v := range x {
		if d := math.Abs(est[v] - x[v]); d > worst {
			worst = d
		}
	}
	if worst < 2*cellBound {
		t.Fatalf("mis-calibrated aggregator deviates only %.1f — the %.1f envelope could not catch it", worst, cellBound)
	}
	t.Logf("mis-calibration deviates %.1f vs envelope %.1f", worst, cellBound)
}

// The fuzz targets double as regression tests for the decoder-hardening
// fixes; this test pins the specific crafted inputs they surfaced so the
// bugs stay fixed even when fuzzing is skipped.
func TestWireRejectsCraftedArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"nan", math.NaN()}, {"inf", math.Inf(1)}, {"neg", -1}, {"zero", 0}, {"huge", 1e8}} {
		t.Run("oracle-eps-"+tc.name, func(t *testing.T) {
			if _, err := ldp.OracleByName("OLH", 8, tc.eps); err == nil {
				t.Fatalf("OLH accepted ε=%v", tc.eps)
			}
			if _, err := ldp.OracleByName("OUE", 8, tc.eps); err == nil {
				t.Fatalf("OUE accepted ε=%v", tc.eps)
			}
		})
	}
	for _, tc := range []struct{ rows, cols int }{
		{1 << 32, 1 << 32}, // product overflows to 0 on 64-bit int
		{-4, -4},           // negative but positive product
		{1 << 30, 2},       // over the element cap
	} {
		t.Run(fmt.Sprintf("strategy-dims-%dx%d", tc.rows, tc.cols), func(t *testing.T) {
			if err := encodeStrategy(t, tc.rows, tc.cols, 1, nil); err == nil {
				t.Fatalf("loader accepted %dx%d", tc.rows, tc.cols)
			}
		})
	}
	// Column-stochastic matrices whose small rows break the e^ε ratio: an
	// absolute tolerance let both through.
	for _, tc := range []struct {
		name string
		eps  float64
		data []float64
	}{
		{"zero-beside-positive", 0.1, []float64{5e-7, 0, 1 - 5e-7, 1}},
		{"realized-eps-11.5", 1, []float64{1e-7, 1e-12, 1 - 1e-7, 1 - 1e-12}},
	} {
		t.Run("strategy-ratio-"+tc.name, func(t *testing.T) {
			if err := encodeStrategy(t, 2, 2, tc.eps, tc.data); err == nil {
				t.Fatalf("loader accepted %v at ε = %g", tc.data, tc.eps)
			}
		})
	}
}

// encodeStrategy hand-crafts a strategy wire file and reports what
// LoadStrategy makes of it. Before the bounds checks, 2³²×2³² dimensions
// (with no matrix data) wrapped to a zero product, matched the empty Data
// slice, and panicked deep inside matrix construction.
func encodeStrategy(t *testing.T, rows, cols int, eps float64, data []float64) error {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Magic   string
		Version int
		Kind    string
	}{"LDPWIRE", 1, "strategy"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(struct {
		Rows, Cols int
		Eps        float64
		Data       []float64
	}{Rows: rows, Cols: cols, Eps: eps, Data: data}); err != nil {
		t.Fatal(err)
	}
	_, err := ldp.LoadStrategy(&buf)
	return err
}
