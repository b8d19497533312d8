// Package lowerbound implements the paper's error lower bounds (Section 5.3):
// the SVD bound on the optimization objective (Theorem 5.6), the resulting
// bound on worst-case variance (Corollary 5.7), and the sample-complexity
// bound it implies. These characterize the inherent hardness of a workload
// through its singular values and let callers check how close an optimized
// strategy is to optimal.
package lowerbound

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/workload"
)

// Objective returns the Theorem 5.6 lower bound on L(Q) for any ε-LDP
// strategy: (λ₁ + … + λ_n)² / e^ε, with λᵢ the singular values of W.
func Objective(w workload.Workload, eps float64) (float64, error) {
	nuc, err := linalg.NuclearNormFromGram(w.Gram())
	if err != nil {
		return 0, err
	}
	return nuc * nuc / math.Exp(eps), nil
}

// SampleComplexity returns the implied lower bound on the number of samples
// needed for normalized variance α (combining Corollary 5.7 with
// Corollary 5.4): N ≥ [(Σλ)²/e^ε − ‖W‖²_F] / (n·p·α).
func SampleComplexity(w workload.Workload, eps, alpha float64) (float64, error) {
	obj, err := Objective(w, eps)
	if err != nil {
		return 0, err
	}
	n := float64(w.Domain())
	p := float64(w.Queries())
	lb := (obj - w.FrobNorm2()) / (n * p * alpha)
	if lb < 0 {
		lb = 0
	}
	return lb, nil
}
