package baselines

import (
	"math"
	"testing"

	"repro/internal/mechanism"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Sample complexity must be monotone non-increasing in ε for every baseline:
// more privacy budget can never require more users.
func TestSampleComplexityMonotoneInEpsilon(t *testing.T) {
	n := 16
	w := workload.NewPrefix(n)
	build := func(eps float64) []mechanism.Mechanism {
		ms, err := Competitors(w, eps)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	epsilons := []float64{0.5, 1, 2, 4}
	var prev map[string]float64
	for _, eps := range epsilons {
		cur := map[string]float64{}
		for _, m := range build(eps) {
			vp, err := m.Profile(w)
			if err != nil {
				t.Fatalf("%s at ε=%v: %v", m.Name(), eps, err)
			}
			cur[m.Name()] = vp.SampleComplexity(0.01)
		}
		if prev != nil {
			for name, v := range cur {
				if pv, ok := prev[name]; ok && v > pv*1.0001 {
					t.Errorf("%s: sample complexity rose with ε: %v -> %v", name, pv, v)
				}
			}
		}
		prev = cur
	}
}

// The full-order Fourier strategy must have full column rank so it can answer
// arbitrary workloads (the property the Competitors set depends on).
func TestFourierFullOrderFullRank(t *testing.T) {
	f, err := Fourier(4, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Strategy().Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if !r.FullRank {
		t.Fatal("full-order Fourier strategy should be full rank")
	}
	// Order-1 Fourier over d=4 has rank ≤ 5 < 16: it must *not* claim to
	// answer the Histogram workload.
	f1, err := Fourier(4, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Profile(workload.NewHistogram(16)); err == nil {
		t.Fatal("order-1 Fourier cannot answer Histogram; expected error")
	}
	// But it answers the 1-way marginals workload exactly.
	if _, err := f1.Profile(workload.NewKWayMarginals(4, 1)); err != nil {
		t.Fatalf("order-1 Fourier should answer 1-way marginals: %v", err)
	}
}

// Hierarchical with the paper's branching factor 4 must validate and have the
// expected number of levels.
func TestHierarchicalBranch4Levels(t *testing.T) {
	h, err := Hierarchical(64, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Widths 16, 4, 1 → cells 4 + 16 + 64 = 84.
	if got := h.Strategy().Outputs(); got != 84 {
		t.Fatalf("outputs = %d, want 84", got)
	}
	if err := h.Strategy().Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// Subset selection beats randomized response on Histogram at moderate domain
// size and ε = 1 — the Ye–Barg optimality result the paper cites.
func TestSubsetSelectionBeatsRR(t *testing.T) {
	n, eps := 16, 1.0
	w := workload.NewHistogram(n)
	ss, err := SubsetSelection(n, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := ss.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := RandomizedResponse(n, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if sv.SampleComplexity(0.01) >= rv.SampleComplexity(0.01) {
		t.Fatalf("Subset Selection (%v) should beat RR (%v)",
			sv.SampleComplexity(0.01), rv.SampleComplexity(0.01))
	}
}

// RAPPOR's strategy matrix must factor as independent bit flips: the
// probability of the all-zeros report for user u is (1-keep)·keep^{n-1}.
func TestRAPPORClosedFormEntry(t *testing.T) {
	n, eps := 5, 1.0
	rp, err := RAPPOR(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	e2 := math.Exp(eps / 2)
	keep := e2 / (1 + e2)
	want := (1 - keep) * math.Pow(keep, float64(n-1))
	if got := rp.Strategy().Q.At(0, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Pr[0...0 | u] = %v, want %v", got, want)
	}
}

// All additive mechanisms must declare strictly positive noise variance.
func TestAdditiveNoisePositive(t *testing.T) {
	w := workload.NewPrefix(8)
	l1, err := MatrixMechanismL1(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := MatrixMechanismL2(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*mechanism.Additive{l1, l2, Gaussian(8, 1)} {
		if a.NoiseVar <= 0 {
			t.Fatalf("%s noise variance = %v", a.Name(), a.NoiseVar)
		}
	}
}

// The strategy matrices the baselines produce are genuinely different
// mechanisms (no accidental aliasing between constructions).
func TestBaselinesDistinct(t *testing.T) {
	n, eps := 8, 1.0
	h, err := Hierarchical(n, eps, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fourier(3, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []*strategy.Strategy{
		RandomizedResponse(n, eps).Strategy(),
		HadamardResponse(n, eps).Strategy(),
		h.Strategy(),
		f.Strategy(),
	}
	for i := range strategies {
		for j := i + 1; j < len(strategies); j++ {
			a, b := strategies[i], strategies[j]
			if a.Outputs() == b.Outputs() && a.Q.FrobNorm2() == b.Q.FrobNorm2() {
				t.Fatalf("strategies %d and %d look identical", i, j)
			}
		}
	}
}
