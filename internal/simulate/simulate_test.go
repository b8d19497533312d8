package simulate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func rrStrategy(n int, eps float64) *strategy.Strategy {
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

func TestProtocolRunShapes(t *testing.T) {
	n := 6
	s := rrStrategy(n, 2)
	w := workload.NewPrefix(n)
	p, err := NewProtocol(s, w)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 5, 0, 3, 2, 0}
	out, err := p.Run(x, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Y) != n || len(out.XEstimate) != n || len(out.Estimates) != w.Queries() {
		t.Fatal("outcome shapes wrong")
	}
	if linalg.Sum(out.Y) != 20 {
		t.Fatalf("response vector total %v, want 20", linalg.Sum(out.Y))
	}
}

func TestProtocolDomainMismatch(t *testing.T) {
	if _, err := NewProtocol(rrStrategy(4, 1), workload.NewPrefix(5)); err == nil {
		t.Fatal("expected domain mismatch error")
	}
}

// The Monte-Carlo error must match the Theorem 3.4 analytic prediction —
// the end-to-end validation that sampling, aggregation, reconstruction, and
// the variance algebra all agree.
func TestMonteCarloMatchesTheory(t *testing.T) {
	n := 5
	s := rrStrategy(n, 1.5)
	w := workload.NewPrefix(n)
	p, err := NewProtocol(s, w)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{40, 25, 10, 15, 10} // N = 100
	// Theorem 3.4: the expected total squared error on x.
	vp, err := s.Variances(w.Gram(), w.Queries())
	if err != nil {
		t.Fatal(err)
	}
	theory := vp.OnData(x)
	stats, err := p.MonteCarlo(x, 600, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo mean of a squared quantity: allow 15% slack at 600 trials.
	if math.Abs(stats.MeanTotalSquared-theory) > 0.15*theory {
		t.Fatalf("Monte-Carlo %v vs theory %v", stats.MeanTotalSquared, theory)
	}
	// Normalization consistency.
	wantNorm := stats.MeanTotalSquared / (float64(w.Queries()) * 100 * 100)
	if math.Abs(stats.Normalized-wantNorm) > 1e-12 {
		t.Fatalf("normalized = %v, want %v", stats.Normalized, wantNorm)
	}
}

// WNNLS must reduce (or at least not increase) the empirical error in the
// low-data regime — the Figure 4 effect.
func TestConsistentReducesError(t *testing.T) {
	n := 16
	s := rrStrategy(n, 1.0)
	w := workload.NewPrefix(n)
	p, err := NewProtocol(s, w)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	x[2], x[5], x[9] = 20, 30, 10 // sparse data, N = 60: plenty of negativity
	raw, err := p.MonteCarlo(x, 40, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := p.MonteCarlo(x, 40, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cons.MeanTotalSquared >= raw.MeanTotalSquared {
		t.Fatalf("WNNLS error %v not below raw %v", cons.MeanTotalSquared, raw.MeanTotalSquared)
	}
}

func TestRunConsistentOutputsFeasible(t *testing.T) {
	n := 8
	s := rrStrategy(n, 1.0)
	w := workload.NewHistogram(n)
	p, err := NewProtocol(s, w)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{5, 0, 0, 0, 0, 0, 0, 5}
	_, pp, err := p.RunConsistent(x, rand.New(rand.NewSource(2)), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pp.X {
		if v < 0 {
			t.Fatalf("x̂[%d] = %v < 0", i, v)
		}
	}
	if math.Abs(linalg.Sum(pp.X)-10) > 1e-6 {
		t.Fatalf("Σx̂ = %v, want 10", linalg.Sum(pp.X))
	}
}

func TestMonteCarloBadTrials(t *testing.T) {
	p, err := NewProtocol(rrStrategy(3, 1), workload.NewHistogram(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MonteCarlo([]float64{1, 1, 1}, 0, false, 1); err == nil {
		t.Fatal("expected error for zero trials")
	}
}
