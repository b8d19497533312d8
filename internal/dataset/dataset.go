// Package dataset provides the data vectors used by the paper's
// data-dependent experiments (Sections 6.4 and 6.7).
//
// The paper uses three benchmark datasets from the DPBench study [22]:
// HEPTH (arXiv citation degrees), MEDCOST (medical costs) and NETTRACE
// (network connections). Those files are not redistributable here, so this
// package generates synthetic data vectors with the published shape
// characteristics instead — HEPTH: smooth, unimodal with a power-law tail;
// MEDCOST: heavy-tailed with a large spike at zero; NETTRACE: extremely
// sparse with a handful of hot cells. Section 6.4's finding is that
// data-dependent variance is close to worst-case variance for *any* data
// shape, so exercising three very different shapes preserves the experiment's
// meaning.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/linalg"
)

// Names lists the synthetic stand-ins for the DPBench datasets.
var Names = []string{"HEPTH", "MEDCOST", "NETTRACE"}

// ByName generates a dataset by name with the given domain size and total
// count. Unknown names return an error.
func ByName(name string, n, total int, seed int64) ([]float64, error) {
	switch strings.ToUpper(name) {
	case "HEPTH":
		return HEPTHLike(n, total, seed), nil
	case "MEDCOST":
		return MEDCOSTLike(n, total, seed), nil
	case "NETTRACE":
		return NETTRACELike(n, total, seed), nil
	case "UNIFORM":
		return Uniform(n, total, seed), nil
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// HEPTHLike returns a smooth unimodal histogram with a power-law tail,
// mimicking the citation-degree shape of the HEPTH dataset.
func HEPTHLike(n, total int, seed int64) []float64 {
	pdf := make([]float64, n)
	peak := float64(n) / 16
	for i := range pdf {
		x := float64(i)
		// Log-normal-like bump: rises quickly, decays polynomially.
		pdf[i] = (x + 1) / ((1 + (x/peak)*(x/peak)) * (1 + x/peak))
	}
	return Multinomial(Normalize(pdf), total, rand.New(rand.NewSource(seed)))
}

// MEDCOSTLike returns a heavy-tailed histogram with a large spike at zero,
// mimicking the medical-cost shape of the MEDCOST dataset.
func MEDCOSTLike(n, total int, seed int64) []float64 {
	pdf := make([]float64, n)
	pdf[0] = 0.25 // the zero-cost spike
	scale := float64(n) / 8
	for i := 1; i < n; i++ {
		pdf[i] = 0.75 * math.Exp(-float64(i)/scale) / scale
	}
	return Multinomial(Normalize(pdf), total, rand.New(rand.NewSource(seed)))
}

// NETTRACELike returns an extremely sparse histogram — a few hot cells carry
// nearly all of the mass — mimicking the NETTRACE connection counts.
func NETTRACELike(n, total int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	pdf := make([]float64, n)
	hot := n / 64
	if hot < 3 {
		hot = 3
	}
	perm := rng.Perm(n)
	for i := 0; i < hot; i++ {
		pdf[perm[i]] = math.Pow(2, -float64(i)/2)
	}
	// A faint uniform background so no cell is impossible.
	for i := range pdf {
		pdf[i] += 1e-3 / float64(n)
	}
	return Multinomial(Normalize(pdf), total, rng)
}

// Uniform returns a multinomial draw from the uniform distribution.
func Uniform(n, total int, seed int64) []float64 {
	pdf := make([]float64, n)
	for i := range pdf {
		pdf[i] = 1 / float64(n)
	}
	return Multinomial(pdf, total, rand.New(rand.NewSource(seed)))
}

// Normalize scales a non-negative vector to sum to one.
func Normalize(pdf []float64) []float64 {
	out := linalg.CloneVec(pdf)
	total := linalg.Sum(out)
	if total <= 0 {
		panic("dataset: probability mass must be positive")
	}
	linalg.ScaleVec(1/total, out)
	return out
}

// Multinomial draws `total` samples from pdf and returns the counts.
func Multinomial(pdf []float64, total int, rng *rand.Rand) []float64 {
	// Inverse-CDF sampling over the cumulative distribution; O(log n) per
	// draw keeps even 10^6 users cheap.
	n := len(pdf)
	cdf := make([]float64, n)
	run := 0.0
	for i, p := range pdf {
		run += p
		cdf[i] = run
	}
	counts := make([]float64, n)
	for j := 0; j < total; j++ {
		u := rng.Float64() * run
		i := sort.SearchFloat64s(cdf, u)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts
}
