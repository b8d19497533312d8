package lowerbound

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func TestObjectiveHistogram(t *testing.T) {
	// Histogram: Σλ = n, so bound = n²/e^ε.
	n, eps := 16, 1.0
	got, err := Objective(workload.NewHistogram(n), eps)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n*n) / math.E
	if math.Abs(got-want) > 1e-8*want {
		t.Fatalf("objective bound = %v, want %v", got, want)
	}
}

func TestObjectiveParityHarderThanHistogram(t *testing.T) {
	// Parity: Σλ = n^{3/2} so its bound is n× the Histogram bound — the
	// paper's hardness ordering (Section 6.2).
	eps := 1.0
	h, err := Objective(workload.NewHistogram(8), eps)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Objective(workload.NewParity(3), eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-8*h) > 1e-6*p {
		t.Fatalf("Parity bound %v should be 8× Histogram bound %v", p, h)
	}
}

func TestHistogramSampleComplexityClosedForm(t *testing.T) {
	// Example 5.8 must agree with the generic bound for the Histogram
	// workload: generic = (n²/e^ε − n)/(n·n·α) = (1/e^ε − 1/n)/α.
	n, eps, alpha := 32, 1.0, 0.01
	generic, err := SampleComplexity(workload.NewHistogram(n), eps, alpha)
	if err != nil {
		t.Fatal(err)
	}
	closed := HistogramSampleComplexity(n, eps, alpha)
	if math.Abs(generic-closed) > 1e-8*(1+closed) {
		t.Fatalf("generic bound %v != closed form %v", generic, closed)
	}
	// Very weak dependence on n (the paper's observation): doubling n must
	// change the bound by less than 5% at these parameters.
	closed2 := HistogramSampleComplexity(2*n, eps, alpha)
	if math.Abs(closed2-closed)/closed > 0.05 {
		t.Fatalf("histogram bound should be nearly n-independent: %v vs %v", closed, closed2)
	}
}

func TestWorstCaseVarianceNonNegative(t *testing.T) {
	// At huge ε the raw bound goes negative and must be clamped to 0.
	lb, err := WorstCaseVariance(workload.NewHistogram(4), 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Fatalf("bound should clamp to 0, got %v", lb)
	}
	// At small ε it is positive and scales linearly in N.
	lb1, err := WorstCaseVariance(workload.NewPrefix(16), 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := WorstCaseVariance(workload.NewPrefix(16), 0.5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if lb1 <= 0 {
		t.Fatalf("expected positive bound, got %v", lb1)
	}
	if math.Abs(lb2-2*lb1) > 1e-9*lb2 {
		t.Fatalf("bound should be linear in N: %v vs %v", lb1, lb2)
	}
}

func TestBoundDecreasesWithEpsilon(t *testing.T) {
	w := workload.NewAllRange(12)
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4} {
		lb, err := Objective(w, eps)
		if err != nil {
			t.Fatal(err)
		}
		if lb >= prev {
			t.Fatalf("bound should strictly decrease with ε: %v then %v", prev, lb)
		}
		prev = lb
	}
}

// WorstCaseVariance returns the Corollary 5.7 lower bound on L_worst for any
// factorization mechanism with N users:
// (N/n)·[(Σλ)²/e^ε − ‖W‖²_F].
func WorstCaseVariance(w workload.Workload, eps float64, numUsers float64) (float64, error) {
	obj, err := Objective(w, eps)
	if err != nil {
		return 0, err
	}
	n := float64(w.Domain())
	lb := numUsers / n * (obj - w.FrobNorm2())
	if lb < 0 {
		lb = 0 // the bound can go vacuous (negative) for easy workloads
	}
	return lb, nil
}

// HistogramSampleComplexity returns the closed-form Example 5.8 bound for the
// Histogram workload: N ≥ (1/α)(1/e^ε − 1/n).
func HistogramSampleComplexity(n int, eps, alpha float64) float64 {
	lb := (1/math.Exp(eps) - 1/float64(n)) / alpha
	if lb < 0 {
		lb = 0
	}
	return lb
}
