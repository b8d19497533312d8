package strategy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/workload"
)

func TestReconstructionFullRankFlag(t *testing.T) {
	s := rrStrategy(5, 1)
	r, err := s.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if !r.FullRank {
		t.Fatal("RR strategy should be full rank")
	}
	if r.Proj != nil {
		t.Fatal("full-rank reconstruction should not carry a projection")
	}
	// Full-rank strategies support every workload.
	if err := r.SupportsGram(workload.NewAllRange(5).Gram()); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructionRankDeficient(t *testing.T) {
	// Two identical output rows over 3 types: rank 1.
	q := linalg.New(2, 3)
	for u := 0; u < 3; u++ {
		q.Set(0, u, 0.4)
		q.Set(1, u, 0.6)
	}
	s := New(q, 1)
	r, err := s.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if r.FullRank {
		t.Fatal("rank-1 strategy misreported as full rank")
	}
	if r.Proj == nil {
		t.Fatal("projection missing")
	}
	// Histogram unsupported...
	if err := r.SupportsGram(linalg.Identity(3)); !errors.Is(err, ErrUnsupportedWorkload) {
		t.Fatalf("expected ErrUnsupportedWorkload, got %v", err)
	}
	// ...but the total-count workload is fine.
	total := linalg.NewFrom(3, 3, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}) // Gram of all-ones row
	if err := r.SupportsGram(total); err != nil {
		t.Fatalf("total count should be supported: %v", err)
	}
}

func TestObjectiveInfForUnsupportedWorkload(t *testing.T) {
	q := linalg.New(2, 3)
	for u := 0; u < 3; u++ {
		q.Set(0, u, 0.5)
		q.Set(1, u, 0.5)
	}
	s := New(q, 1)
	obj, err := s.Objective(linalg.Identity(3), nil)
	if err == nil {
		t.Fatal("expected error for unsupported workload")
	}
	if !math.IsInf(obj, 1) {
		t.Fatalf("objective = %v, want +Inf", obj)
	}
}

func TestReconstructionWithWeightsUniformMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := randStrategy(rng, 10, 4, 1)
	r1, err := s.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.ReconstructionWithWeights(linalg.Constant(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.ApproxEqual(r1.B, r2.B, 1e-9) {
		t.Fatal("uniform weights should match unweighted reconstruction")
	}
}

// The weighted reconstruction must be optimal under the weighted loss: any
// null-space perturbation increases Σᵤ wᵤ·var(u).
func TestWeightedReconstructionOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n, m := 4, 10
	s := randStrategy(rng, m, n, 1)
	w := workload.NewHistogram(n)
	weights := []float64{3, 1, 0.5, 0.1}
	r, err := s.ReconstructionWithWeights(weights)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.Mul(workload.Materialize(w), r.B)
	if !linalg.ApproxEqual(linalg.Mul(v, s.Q), workload.Materialize(w), 1e-7) {
		t.Fatal("weighted V does not satisfy VQ = W")
	}
	base := VariancesExplicit(v, s.Q, s.Eps)
	baseLoss := linalg.Dot(weights, base.PerUser)
	qtq := linalg.Gram(s.Q)
	for trial := 0; trial < 5; trial++ {
		z := linalg.New(n, m)
		for i := range z.Data() {
			z.Data()[i] = rng.NormFloat64()
		}
		var ch linalg.Cholesky
		if err := ch.Factor(qtq); err != nil {
			t.Fatal(err)
		}
		sol := ch.Solve(linalg.MulAtB(s.Q, z.T()))
		proj := linalg.Mul(s.Q, sol).T()
		v2 := v.Clone().AddScaled(1, z).AddScaled(-1, proj)
		perturbed := VariancesExplicit(v2, s.Q, s.Eps)
		if loss := linalg.Dot(weights, perturbed.PerUser); loss < baseLoss-1e-8 {
			t.Fatalf("perturbed weighted loss %v < optimal %v", loss, baseLoss)
		}
	}
}

func TestReconstructionWithWeightsValidation(t *testing.T) {
	s := rrStrategy(3, 1)
	if _, err := s.ReconstructionWithWeights([]float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := s.ReconstructionWithWeights([]float64{1, -1, 1}); err == nil {
		t.Fatal("expected negativity error")
	}
	if _, err := s.ReconstructionWithWeights([]float64{0, 0, 0}); err == nil {
		t.Fatal("expected zero-mass error")
	}
}

// Property: for full-rank strategies, VariancesWithRecon with the weighted B
// still reports valid (non-negative) per-user variances satisfying
// L_avg ≤ L_worst.
func TestWeightedVarianceProfileSane(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		s := randStrategy(rng, n+4+rng.Intn(5), n, 1)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
		r, err := s.ReconstructionWithWeights(weights)
		if err != nil {
			return false
		}
		w := workload.NewPrefix(n)
		vp, err := s.VariancesWithRecon(w.Gram(), w.Queries(), r.B)
		if err != nil {
			return false
		}
		for _, v := range vp.PerUser {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return vp.Avg(1) <= vp.Worst(1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
