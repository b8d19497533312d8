// Statistical acceptance tests: every Randomizer/Aggregator pair runs the
// complete protocol end-to-end at a fixed seed over N = 50,000 reports, and
// the resulting frequency estimates must land inside the error envelope of
// loadgen.Score: 6σ per cell and on the total, σ² the variance the estimator
// itself serves at the snapshot, and 4× the expected total squared error.
// Seed-to-seed noise can never trip it, but a mechanism regression — a
// broken estimator constant, a hash family without the collision property, a
// biased randomizer — shifts estimates by O(N) and fails loudly instead of
// silently degrading accuracy.
package ldp_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/linalg"
	"repro/internal/loadgen"
	"repro/internal/simulate"
)

const (
	acceptN     = 32    // domain size
	acceptUsers = 50000 // reports per mechanism
	acceptSeed  = 41
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

// acceptCase is one mechanism under test: randomized response at ε=1 as a
// strategy matrix (deterministic fixture; an optimized matrix exercises the
// identical aggregation path), and the three frequency oracles.
type acceptCase struct {
	name string
	rz   ldp.Randomizer
	agg  ldp.Aggregator
}

func acceptCases(t *testing.T) []acceptCase {
	t.Helper()
	s := baselines.RandomizedResponse(acceptN, 1.0).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []acceptCase{{"strategy-rr", rz, agg}}
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ldp.OracleByName(name, acceptN, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, acceptCase{name, o, o})
	}
	return cases
}

// acceptScore runs the protocol over x as SimulateProtocol does, with reports
// randomized by rz and aggregated by agg, and scores the histogram estimate
// at the resulting snapshot.
func acceptScore(t *testing.T, rz ldp.Randomizer, agg ldp.Aggregator, x []float64, seed int64) loadgen.Estimates {
	t.Helper()
	p, err := simulate.New(rz, agg, ldp.Histogram(len(x)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(x, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := loadgen.Score(agg, ldp.NewSnapshot(out.Y, linalg.Sum(x), 1, ldp.MechanismInfoOf(agg)), x)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStatisticalAcceptance(t *testing.T) {
	x := acceptData()
	if total := linalg.Sum(x); total != acceptUsers {
		t.Fatalf("fixture mass %v, want %d", total, acceptUsers)
	}
	for _, c := range acceptCases(t) {
		t.Run(c.name, func(t *testing.T) {
			e := acceptScore(t, c.rz, c.agg, x, acceptSeed)
			if !e.InEnvelope {
				t.Errorf("estimate outside the envelope: %+v", e)
			}
			t.Logf("%s: %+v", c.name, e)
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
	e := acceptScore(t, o, wrong, acceptData(), acceptSeed)
	if e.CellError < 2*e.CellEnvelope {
		t.Fatalf("mis-calibrated aggregator deviates only %.1f — the %.1f envelope could not catch it", e.CellError, e.CellEnvelope)
	}
	t.Logf("mis-calibration deviates %.1f vs envelope %.1f", e.CellError, e.CellEnvelope)
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
