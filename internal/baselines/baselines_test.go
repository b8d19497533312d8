package baselines

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mechanism"
	"repro/internal/workload"
)

// Every strategy-matrix baseline must satisfy the LDP constraints of
// Proposition 2.6 at its declared ε — the repo-wide privacy smoke test.
func TestAllStrategyBaselinesAreLDP(t *testing.T) {
	n := 8
	for _, eps := range []float64{0.5, 1.0, 3.0} {
		var mechs []*mechanism.Factorization
		mechs = append(mechs, RandomizedResponse(n, eps), HadamardResponse(n, eps))
		h, err := Hierarchical(n, eps, 2)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, h)
		f, err := Fourier(3, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, f)
		ss, err := SubsetSelection(n, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, ss)
		rp, err := RAPPOR(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, rp)
		for _, m := range mechs {
			if err := m.Strategy().Validate(1e-9); err != nil {
				t.Errorf("ε=%v: %s violates LDP: %v", eps, m.Name(), err)
			}
		}
	}
}

func TestRandomizedResponseMatchesClosedForm(t *testing.T) {
	// Example 3.7 again, but through the Mechanism interface.
	n, eps := 6, 1.0
	rr := RandomizedResponse(n, eps)
	vp, err := rr.Profile(workload.NewHistogram(n))
	if err != nil {
		t.Fatal(err)
	}
	e := math.Exp(eps)
	nf := float64(n)
	want := (nf - 1) * (nf/((e-1)*(e-1)) + 2/(e-1))
	if got := vp.Worst(1); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("RR worst variance = %v, want %v", got, want)
	}
}

func TestHadamardShape(t *testing.T) {
	// n=8 needs K=16 outputs (2^⌈log2 9⌉).
	h := HadamardResponse(8, 1)
	if h.Strategy().Outputs() != 16 {
		t.Fatalf("outputs = %d, want 16", h.Strategy().Outputs())
	}
	// n=7 needs K=8.
	h = HadamardResponse(7, 1)
	if h.Strategy().Outputs() != 8 {
		t.Fatalf("outputs = %d, want 8", h.Strategy().Outputs())
	}
}

// The paper's headline for Hadamard: at moderate-to-large domains it needs far
// fewer samples than RR for Histogram (sample complexity ~independent of n).
func TestHadamardBeatsRRAtLargeDomain(t *testing.T) {
	n, eps := 64, 1.0
	w := workload.NewHistogram(n)
	rr, err := RandomizedResponse(n, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	had, err := HadamardResponse(n, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if had.SampleComplexity(0.01) >= rr.SampleComplexity(0.01) {
		t.Fatalf("Hadamard (%v) should beat RR (%v) on Histogram at n=64",
			had.SampleComplexity(0.01), rr.SampleComplexity(0.01))
	}
}

func TestHierarchicalStructure(t *testing.T) {
	h, err := Hierarchical(8, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Levels: widths 4,2,1 → cells 2+4+8 = 14 rows.
	if got := h.Strategy().Outputs(); got != 14 {
		t.Fatalf("outputs = %d, want 14", got)
	}
	// Branch < 2 rejected.
	if _, err := Hierarchical(8, 1, 1); err == nil {
		t.Fatal("expected error for branch < 2")
	}
	// Tiny domain degenerates to one singleton level.
	h2, err := Hierarchical(2, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Strategy().Outputs() != 2 {
		t.Fatalf("outputs = %d, want 2", h2.Strategy().Outputs())
	}
}

// Hierarchical is designed for range workloads: it must beat RR on Prefix at
// moderate domain size (Section 6.2: "the best competitor on the Prefix
// workload was Hierarchical").
func TestHierarchicalBeatsRROnPrefix(t *testing.T) {
	n, eps := 64, 1.0
	w := workload.NewPrefix(n)
	h, err := Hierarchical(n, eps, 4)
	if err != nil {
		t.Fatal(err)
	}
	hv, err := h.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := RandomizedResponse(n, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if hv.SampleComplexity(0.01) >= rv.SampleComplexity(0.01) {
		t.Fatalf("Hierarchical (%v) should beat RR (%v) on Prefix",
			hv.SampleComplexity(0.01), rv.SampleComplexity(0.01))
	}
}

func TestFourierStructure(t *testing.T) {
	f, err := Fourier(3, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty subsets of [3]: 7, two outputs each.
	if f.Strategy().Outputs() != 14 {
		t.Fatalf("outputs = %d, want 14", f.Strategy().Outputs())
	}
	f2, err := Fourier(4, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// |S| ∈ {1,2}: 4 + 6 = 10 subsets.
	if f2.Strategy().Outputs() != 20 {
		t.Fatalf("outputs = %d, want 20", f2.Strategy().Outputs())
	}
	if _, err := Fourier(0, 1, 0); err == nil {
		t.Fatal("expected error for d = 0")
	}
}

// Fourier is designed for marginals: it must beat RR on 3-way marginals
// (Section 6.2: "the best competitor on the 3-Way Marginals workload was
// Fourier").
func TestFourierBeatsRROnMarginals(t *testing.T) {
	d, eps := 6, 1.0
	w := workload.NewKWayMarginals(d, 3)
	f, err := Fourier(d, eps, 3)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := f.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := RandomizedResponse(1<<d, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if fv.SampleComplexity(0.01) >= rv.SampleComplexity(0.01) {
		t.Fatalf("Fourier (%v) should beat RR (%v) on 3-way marginals",
			fv.SampleComplexity(0.01), rv.SampleComplexity(0.01))
	}
}

func TestSubsetSelectionAutoD(t *testing.T) {
	// ε=1: d ≈ n/(e+1); for n=8, d = 2.
	ss, err := SubsetSelection(8, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Strategy().Outputs() != 28 { // C(8,2)
		t.Fatalf("outputs = %d, want C(8,2) = 28", ss.Strategy().Outputs())
	}
	// d=1 reduces exactly to randomized response.
	ss1, err := SubsetSelection(5, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := RandomizedResponse(5, 1.0)
	if !linalg.ApproxEqual(ss1.Strategy().Q, rr.Strategy().Q, 1e-12) {
		t.Fatal("subset selection with d=1 should equal randomized response")
	}
	// Exponential blow-up rejected.
	if _, err := SubsetSelection(64, 0.1, 30); err == nil {
		t.Fatal("expected cap error for huge subset strategy")
	}
	if _, err := SubsetSelection(4, 1, 9); err == nil {
		t.Fatal("expected error for d > n")
	}
}

func TestRAPPORColumnsAreDistributions(t *testing.T) {
	rp, err := RAPPOR(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Strategy().Outputs() != 64 {
		t.Fatalf("outputs = %d, want 2^6", rp.Strategy().Outputs())
	}
	if _, err := RAPPOR(30, 1.0); err == nil {
		t.Fatal("expected cap error for RAPPOR at n=30")
	}
}

func TestMatrixMechanismNuclearNormIdentity(t *testing.T) {
	// For A = G^{1/4}, ‖WA⁺‖²_F = Σ singular values of W. Verify on Prefix.
	w := workload.NewPrefix(12)
	l2, err := MatrixMechanismL2(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := l2.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	nuc, err := linalg.NuclearNormFromGram(w.Gram())
	if err != nil {
		t.Fatal(err)
	}
	want := l2.NoiseVar * nuc
	if got := vp.PerUser[0]; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("L2 MM per-user variance = %v, want noiseVar·Σλ = %v", got, want)
	}
}

func TestGaussianDominatedByL2MM(t *testing.T) {
	// Section 6.1: the Gaussian mechanism is strictly dominated by the L2
	// Matrix Mechanism. Verify on Prefix, where strategy choice matters.
	w := workload.NewPrefix(32)
	eps := 1.0
	g, err := Gaussian(32, eps).Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	l2m, err := MatrixMechanismL2(w, eps)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := l2m.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if l2.SampleComplexity(0.01) >= g.SampleComplexity(0.01) {
		t.Fatalf("L2 MM (%v) should dominate Gaussian (%v) on Prefix",
			l2.SampleComplexity(0.01), g.SampleComplexity(0.01))
	}
}

func TestAdditiveProfileUniform(t *testing.T) {
	w := workload.NewHistogram(6)
	g := Gaussian(6, 1.0)
	vp, err := g.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vp.PerUser {
		if math.Abs(v-vp.PerUser[0]) > 1e-12 {
			t.Fatal("additive mechanism variance must be uniform across user types")
		}
	}
	// A = I on Histogram: var = σ²·‖I·I⁺‖²_F = nσ².
	want := g.NoiseVar * 6
	if math.Abs(vp.PerUser[0]-want) > 1e-9*want {
		t.Fatalf("Gaussian per-user variance = %v, want %v", vp.PerUser[0], want)
	}
}

func TestCompetitorsList(t *testing.T) {
	w := workload.NewPrefix(8)
	ms, err := Competitors(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 {
		t.Fatalf("expected 6 competitors for power-of-two domain, got %d", len(ms))
	}
	// Non-power-of-two domain: Fourier dropped.
	w2 := workload.NewPrefix(10)
	ms2, err := Competitors(w2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2) != 5 {
		t.Fatalf("expected 5 competitors at n=10, got %d", len(ms2))
	}
	// All evaluable.
	for i, m := range ms {
		vp, err := m.Profile(w)
		if err != nil {
			t.Fatalf("competitor %d (%s): %v", i, m.Name(), err)
		}
		if sc := vp.SampleComplexity(0.01); math.IsInf(sc, 1) || sc <= 0 {
			t.Fatalf("competitor %d (%s) sample complexity = %v", i, m.Name(), sc)
		}
	}
}

func TestPairwiseColumnDiameter(t *testing.T) {
	a := linalg.NewFrom(2, 3, []float64{0, 1, 3, 0, 0, 4})
	if got := mechanism.PairwiseColumnDiameter(a, 2); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2 diameter = %v, want 5", got)
	}
	if got := mechanism.PairwiseColumnDiameter(a, 1); math.Abs(got-7) > 1e-12 {
		t.Fatalf("L1 diameter = %v, want 7", got)
	}
}

func TestForEachSubset(t *testing.T) {
	count := 0
	seen := map[uint]bool{}
	forEachSubset(6, 3, func(mask uint) {
		count++
		if popcount(mask) != 3 {
			t.Fatalf("mask %b has wrong popcount", mask)
		}
		if seen[mask] {
			t.Fatalf("duplicate mask %b", mask)
		}
		seen[mask] = true
	})
	if count != 20 {
		t.Fatalf("enumerated %d subsets, want C(6,3) = 20", count)
	}
	// d = 0 yields exactly the empty set.
	count = 0
	forEachSubset(4, 0, func(mask uint) { count++ })
	if count != 1 {
		t.Fatalf("d=0 enumerated %d subsets, want 1", count)
	}
}

func popcount(v uint) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}

func TestMechanismMetadata(t *testing.T) {
	rr := RandomizedResponse(5, 1.5)
	if rr.Domain() != 5 || rr.Epsilon() != 1.5 || rr.Name() == "" {
		t.Fatal("metadata accessors wrong")
	}
	g := Gaussian(7, 2)
	if g.Domain() != 7 || g.Epsilon() != 2 {
		t.Fatal("additive metadata accessors wrong")
	}
	// Domain mismatch must error cleanly.
	if _, err := rr.Profile(workload.NewHistogram(6)); err == nil {
		t.Fatal("expected domain mismatch error")
	}
	if _, err := g.Profile(workload.NewHistogram(6)); err == nil {
		t.Fatal("expected domain mismatch error for additive mechanism")
	}
}
