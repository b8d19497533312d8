package ldp

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/protocol"
	"repro/internal/simulate"
	"repro/internal/strategy"
)

// Report is the single wire format every mechanism's client report travels
// in: strategy-matrix mechanisms fill Index, OLH fills Seed+Index, unary
// encoding (OUE/RAPPOR) fills Bits. Reports travel in LDPF frames (see the
// README's wire appendix); the struct is flat, and Bits is opaque —
// deliberately not a gob/JSON value.
type Report = protocol.Report

// BitVec is a unary report's bit vector, held in the exact form the report
// frame and the WAL record carry it (see protocol.BitVec). The zero value
// means "no vector".
type BitVec = protocol.BitVec

// NewBitVec returns a present vector of n zero bits; fill it with Set.
func NewBitVec(n int) BitVec { return protocol.NewBitVec(n) }

// Randomizer is the client side of the streaming protocol: it encodes one
// user's true type into a randomized Report. Both mechanism families
// implement it — build one from an optimized strategy with NewRandomizer, or
// use a FrequencyOracle directly (oracles are their own Randomizer).
type Randomizer = protocol.Randomizer

// Aggregator is the server side of the streaming protocol: it folds reports
// into a mergeable accumulator and converts accumulators into unbiased
// per-type count estimates. Build one from an optimized strategy with
// NewAggregator, or use a FrequencyOracle directly.
type Aggregator = protocol.Aggregator

// EpsValidationTol is the single ε-validation tolerance used everywhere a
// strategy crosses a trust boundary (NewRandomizer, LoadStrategy). Because
// every entry point shares it, a strategy that loads is always accepted by
// the client that randomizes through it.
const EpsValidationTol = strategy.DefaultValidateTol

// NewRandomizer adapts an optimized strategy to the protocol's client side.
// The strategy is validated against its declared ε (to EpsValidationTol)
// before use: a client must never randomize through a matrix that does not
// actually provide the promised privacy.
func NewRandomizer(s *Strategy) (Randomizer, error) {
	r, err := strategy.NewRandomizer(s)
	if err != nil {
		return nil, fmt.Errorf("ldp: %w", err)
	}
	return r, nil
}

// NewAggregator adapts an optimized strategy to the protocol's server side,
// precomputing the optimal reconstruction B = (QᵀD⁻¹Q)⁺QᵀD⁻¹ (Theorem 3.10).
func NewAggregator(s *Strategy) (Aggregator, error) {
	a, err := strategy.NewAggregator(s)
	if err != nil {
		return nil, fmt.Errorf("ldp: %w", err)
	}
	return a, nil
}

// Client is the user-side half of the LDP protocol for any mechanism.
// Randomize is the only thing that ever touches a user's true type, and its
// output is safe to send to an untrusted collector — that is the LDP
// guarantee.
type Client struct {
	r Randomizer
}

// NewClient wraps a mechanism's randomizer: pass a FrequencyOracle directly,
// or adapt an optimized strategy with NewRandomizer first.
func NewClient(r Randomizer) (*Client, error) {
	if r == nil {
		return nil, errors.New("ldp: nil randomizer")
	}
	return &Client{r: r}, nil
}

// Randomize encodes user type u (0 ≤ u < Domain) into one report using the
// supplied randomness source. Client itself satisfies Randomizer.
func (c *Client) Randomize(u int, rng *rand.Rand) (Report, error) {
	return c.r.Randomize(u, rng)
}

// Epsilon returns the privacy budget the client's reports satisfy.
func (c *Client) Epsilon() float64 { return c.r.Epsilon() }

// Domain returns the number of user types the client accepts.
func (c *Client) Domain() int { return c.r.Domain() }

// SimulateProtocol runs the complete protocol for any mechanism on an integer
// data vector x (each count is a user) and returns the unbiased workload
// estimates. Strategy mechanisms and frequency oracles run through exactly
// the same path.
func SimulateProtocol(r Randomizer, agg Aggregator, w Workload, x []float64, seed int64) ([]float64, error) {
	p, err := simulate.New(r, agg, w)
	if err != nil {
		return nil, err
	}
	out, err := p.Run(x, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return out.Estimates, nil
}
