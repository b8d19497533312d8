package ldp

import (
	"repro/internal/core"
)

// OptimizeOption configures Optimize. The zero configuration uses the paper's
// defaults: m = 4n outputs, random initialization, automatic step-size
// search, 500 iterations, uniform (worst-case-oriented) objective, no warm
// starts.
type OptimizeOption func(*optimizeSettings)

// optimizeSettings is the resolved option set Optimize runs with.
type optimizeSettings struct {
	core       core.Options
	warmStarts bool
}

// WithIterations bounds the number of projected-gradient iterations
// (default 500).
func WithIterations(iters int) OptimizeOption {
	return func(s *optimizeSettings) { s.core.Iters = iters }
}

// WithOutputs sets the strategy's output-range size m explicitly (default
// m = 4n, the paper's empirical sweet spot).
//
// m = n is a trap for the random initialization at large ε: with no slack
// outputs the descent stalls far from the optimum, and where it stalls
// depends on the seed. At ε = 4, n = 32, seeds 0–3, random init at m = n
// ends at L = 2,112.8–23,283.6 for Prefix and 481.5–5,110.4 for Histogram,
// against 699.3 and 80.1 with WithWarmStarts at the same m, and 688.8–691.4
// and 80.2–80.3 at the default m = 4n. Use m ≥ 4n, or add WithWarmStarts
// when m must be small.
func WithOutputs(m int) OptimizeOption {
	return func(s *optimizeSettings) { s.core.Outputs = m }
}

// WithSeed drives the random initialization (and the step-size pilot runs).
func WithSeed(seed int64) OptimizeOption {
	return func(s *optimizeSettings) { s.core.Seed = seed }
}

// WithPrior optimizes for a known (or estimated) prior distribution over user
// types instead of the uniform average — the data-dependent variant the paper
// sketches in footnote 2. Both the strategy search and the reconstruction are
// weighted by the prior, so the mechanism concentrates its accuracy where the
// data actually lives; worst-case guarantees of the result are still reported
// exactly.
func WithPrior(prior []float64) OptimizeOption {
	return func(s *optimizeSettings) { s.core.Prior = prior }
}

// WithWarmStarts hardens the search: after the paper's random-init run the
// standard baseline strategies are considered as alternative initializations
// and the best mechanism found is returned, so the result provably dominates
// every factorization baseline in average-case variance. Costs up to 2×.
func WithWarmStarts() OptimizeOption {
	return func(s *optimizeSettings) { s.warmStarts = true }
}

// WithProgress observes (iteration, objective) pairs as the projected
// gradient descent runs — for progress bars, logging, or adaptive
// cancellation through the context.
func WithProgress(fn func(iter int, objective float64)) OptimizeOption {
	return func(s *optimizeSettings) { s.core.OnIteration = fn }
}
