// Package simulate executes the full LDP protocol end-to-end for any
// mechanism speaking the streaming protocol contract (internal/protocol):
// every user randomizes their type through the mechanism's Randomizer, the
// server absorbs the reports into the Aggregator's accumulator, and the
// analyst reconstructs workload answers — unbiased (W·x̂) or consistent
// (WNNLS post-processing). It also provides Monte-Carlo estimation of the
// mechanism's empirical error, used by the Figure 4 reproduction where no
// closed-form variance exists for WNNLS.
//
// For strategy-matrix mechanisms the reconstruction never materializes V:
// V·y = W·(B·y) with B = (QᵀD⁻¹Q)⁺QᵀD⁻¹ (Theorem 3.10), so only the n-vector
// B·y is formed and the workload's fast MatVec does the rest. Frequency
// oracles estimate the histogram x̂ directly and the same W·x̂ serves any
// workload over it.
package simulate

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/postprocess"
	"repro/internal/protocol"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Protocol bundles a mechanism's two protocol halves with a workload and
// precomputes everything the per-run simulation needs.
type Protocol struct {
	rnd  protocol.Randomizer
	agg  protocol.Aggregator
	work workload.Workload
}

// New prepares a protocol simulation for any mechanism given as its
// randomizer/aggregator pair.
func New(r protocol.Randomizer, a protocol.Aggregator, w workload.Workload) (*Protocol, error) {
	if r.Domain() != a.Domain() {
		return nil, fmt.Errorf("simulate: randomizer domain %d != aggregator domain %d", r.Domain(), a.Domain())
	}
	if a.Domain() != w.Domain() {
		return nil, fmt.Errorf("simulate: mechanism domain %d != workload domain %d", a.Domain(), w.Domain())
	}
	return &Protocol{rnd: r, agg: a, work: w}, nil
}

// NewProtocol prepares a protocol simulation for a strategy-matrix mechanism.
func NewProtocol(s *strategy.Strategy, w workload.Workload) (*Protocol, error) {
	if s.Domain() != w.Domain() {
		return nil, fmt.Errorf("simulate: strategy domain %d != workload domain %d", s.Domain(), w.Domain())
	}
	r, err := strategy.NewRandomizer(s)
	if err != nil {
		return nil, err
	}
	a, err := strategy.NewAggregator(s)
	if err != nil {
		return nil, err
	}
	return New(r, a, w)
}

// Outcome is the result of one protocol execution.
type Outcome struct {
	// Y is the aggregated accumulator state (for strategy mechanisms, the
	// response histogram with one randomized response per user).
	Y []float64
	// XEstimate is the unbiased estimate of the data vector (B·y for
	// strategy mechanisms, the channel-inverted histogram for oracles).
	XEstimate []float64
	// Estimates is W·XEstimate, the unbiased workload answers.
	Estimates []float64
}

// Run simulates one execution on integer data vector x.
func (p *Protocol) Run(x []float64, rng *rand.Rand) (*Outcome, error) {
	if len(x) != p.agg.Domain() {
		return nil, fmt.Errorf("simulate: data vector length %d, want %d", len(x), p.agg.Domain())
	}
	acc := make([]float64, p.agg.StateLen())
	count := 0.0
	for u, cnt := range x {
		c := int(cnt)
		if float64(c) != cnt || c < 0 {
			return nil, fmt.Errorf("simulate: data vector entry %d = %g is not a non-negative integer", u, cnt)
		}
		for j := 0; j < c; j++ {
			rep, err := p.rnd.Randomize(u, rng)
			if err != nil {
				return nil, err
			}
			if err := p.agg.Absorb(acc, rep); err != nil {
				return nil, err
			}
			count++
		}
	}
	xh := p.agg.EstimateCounts(acc, count)
	return &Outcome{Y: acc, XEstimate: xh, Estimates: p.work.MatVec(xh)}, nil
}

// RunConsistent simulates one execution and applies WNNLS post-processing
// (Appendix A), returning consistent workload answers. totalCount > 0 also
// projects onto the known respondent total.
func (p *Protocol) RunConsistent(x []float64, rng *rand.Rand, totalCount float64) (*Outcome, *postprocess.Result, error) {
	out, err := p.Run(x, rng)
	if err != nil {
		return nil, nil, err
	}
	pp, err := postprocess.Run(p.work, out.Estimates, postprocess.Options{TotalCount: totalCount})
	if err != nil {
		return nil, nil, err
	}
	return out, pp, nil
}

// ErrorStats summarizes Monte-Carlo error measurements.
type ErrorStats struct {
	// MeanTotalSquared is the Monte-Carlo mean of ‖Wx − estimate‖²₂ (the
	// quantity whose expectation Theorem 3.4 predicts).
	MeanTotalSquared float64
	// Normalized is the Definition 5.2 normalized error:
	// MeanTotalSquared / (p·N²).
	Normalized float64
	// Trials is the number of Monte-Carlo executions.
	Trials int
}

// MonteCarlo measures the empirical error of the protocol over the given
// number of trials. When consistent is true, WNNLS post-processing (with the
// known total) is applied to each trial — the Figure 4 configuration.
func (p *Protocol) MonteCarlo(x []float64, trials int, consistent bool, seed int64) (*ErrorStats, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("simulate: trials must be positive, got %d", trials)
	}
	truth := p.work.MatVec(x)
	numUsers := linalg.Sum(x)
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for t := 0; t < trials; t++ {
		var est []float64
		if consistent {
			_, pp, err := p.RunConsistent(x, rng, numUsers)
			if err != nil {
				return nil, err
			}
			est = pp.Answers
		} else {
			out, err := p.Run(x, rng)
			if err != nil {
				return nil, err
			}
			est = out.Estimates
		}
		sum += squaredDistance(truth, est)
	}
	mean := sum / float64(trials)
	p64 := float64(p.work.Queries())
	return &ErrorStats{
		MeanTotalSquared: mean,
		Normalized:       mean / (p64 * numUsers * numUsers),
		Trials:           trials,
	}, nil
}

func squaredDistance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
