package strategy

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/protocol"
)

// DefaultValidateTol is the single ε-validation tolerance used everywhere a
// strategy crosses a trust boundary (building a randomizer, loading a saved
// strategy). One shared constant guarantees that any strategy accepted by one
// entry point is accepted by all of them — a strategy that loads must never
// be refused by the client that is about to randomize through it.
const DefaultValidateTol = 1e-6

// Randomizer adapts a validated strategy matrix to the streaming protocol's
// client side: Randomize samples one output index per user through the
// column's alias table.
type Randomizer struct {
	s       *Strategy
	sampler *Sampler
}

// NewRandomizer validates the strategy's declared ε (a client must never
// randomize through a matrix that does not provide the promised privacy) and
// preprocesses its columns for O(1) sampling.
func NewRandomizer(s *Strategy) (*Randomizer, error) {
	if err := s.Validate(DefaultValidateTol); err != nil {
		return nil, fmt.Errorf("strategy: refusing to randomize: %w", err)
	}
	sp, err := NewSampler(s)
	if err != nil {
		return nil, err
	}
	return &Randomizer{s: s, sampler: sp}, nil
}

// Domain returns the number of user types accepted.
func (r *Randomizer) Domain() int { return r.sampler.Domain() }

// Epsilon returns the privacy budget each report satisfies.
func (r *Randomizer) Epsilon() float64 { return r.s.Eps }

// Strategy returns the validated strategy backing this randomizer.
func (r *Randomizer) Strategy() *Strategy { return r.s }

// Randomize samples output o with probability Q[o][u].
func (r *Randomizer) Randomize(u int, rng *rand.Rand) (protocol.Report, error) {
	if u < 0 || u >= r.sampler.Domain() {
		return protocol.Report{}, fmt.Errorf("strategy: type %d out of domain %d", u, r.sampler.Domain())
	}
	return protocol.Report{Index: r.sampler.Sample(u, rng)}, nil
}

// Aggregator adapts a strategy's optimal reconstruction (Theorem 3.10) to the
// streaming protocol's server side. The accumulator is the response histogram
// y (length m); EstimateCounts returns B·y, the unbiased estimate of the data
// vector within the strategy's row space.
type Aggregator struct {
	s      *Strategy
	reconT *linalg.Matrix // Bᵀ, m×n, with B = (QᵀD⁻¹Q)⁺QᵀD⁻¹ (n×m)
}

// NewAggregator precomputes the reconstruction factor B and keeps it once,
// transposed: every product the read path takes with B (B·y, and the rows of
// B·diag(y)·Bᵀ) is then a vector–matrix pass over contiguous rows of Bᵀ.
func NewAggregator(s *Strategy) (*Aggregator, error) {
	r, err := s.Reconstruction()
	if err != nil {
		return nil, err
	}
	return &Aggregator{s: s, reconT: r.B.T()}, nil
}

// Domain returns the number of user types estimated.
func (a *Aggregator) Domain() int { return a.s.Domain() }

// Epsilon returns the privacy budget of the strategy aggregated under.
func (a *Aggregator) Epsilon() float64 { return a.s.Eps }

// Strategy returns the strategy backing this aggregator — the exact channel
// identity a snapshot or transport handshake fingerprints.
func (a *Aggregator) Strategy() *Strategy { return a.s }

// ReconT returns the transpose of the precomputed reconstruction factor
// B = (QᵀD⁻¹Q)⁺QᵀD⁻¹, m×n. Callers must treat it as read-only; the variance
// algebra of the estimator layer (per-query variance of V·y with V = W·B) is
// built from it.
func (a *Aggregator) ReconT() *linalg.Matrix { return a.reconT }

// StateLen returns m, the response-histogram width.
func (a *Aggregator) StateLen() int { return a.s.Outputs() }

// Check validates the report's output index without touching any state.
func (a *Aggregator) Check(r protocol.Report) error {
	if r.Bits.Present() {
		return fmt.Errorf("strategy: unary-encoded report sent to a strategy aggregator")
	}
	if r.Index < 0 || r.Index >= a.s.Outputs() {
		return fmt.Errorf("strategy: response %d out of range [0, %d)", r.Index, a.s.Outputs())
	}
	return nil
}

// Absorb counts the report into the response histogram.
func (a *Aggregator) Absorb(acc []float64, r protocol.Report) error {
	if err := a.Check(r); err != nil {
		return err
	}
	acc[r.Index]++
	return nil
}

// EstimateCounts returns B·acc; the report count is not needed because the
// reconstruction is already unbiased at any N. Each entry is the chain
// Σ_o acc_o·B_jo in ascending o, the bits of a row-by-row B·acc.
func (a *Aggregator) EstimateCounts(acc []float64, count float64) []float64 {
	out := make([]float64, a.reconT.Cols())
	a.reconT.MulVecTTo(out, acc, 0)
	return out
}
