package ldp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

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

// Server is a single-goroutine collector: it absorbs reports into the
// mechanism's accumulator and hands out Snapshots for an Estimator to answer.
// For concurrent ingestion use Collector, which shards the same state across
// goroutines.
type Server struct {
	agg   Aggregator
	info  MechanismInfo
	acc   []float64
	count float64

	// epoch/snapCount implement the monotonic snapshot sequence: the epoch
	// advances exactly when Snap observes a count the previous Snap did not.
	// snapMu guards them so Snap stays safe to fan out across goroutines —
	// ingestion remains single-goroutine.
	snapMu    sync.Mutex
	epoch     uint64
	snapCount float64
}

// NewServer prepares a collector for the given mechanism aggregator and
// workload. Frequency oracles estimate the full histogram, so any workload
// over their domain is answerable — the same W·x̂ reconstruction used by
// strategy mechanisms.
func NewServer(agg Aggregator, w Workload) (*Server, error) {
	info, err := checkedInfo(agg, w)
	if err != nil {
		return nil, err
	}
	return &Server{agg: agg, info: info, acc: make([]float64, agg.StateLen())}, nil
}

// Ingest records one client report.
func (sv *Server) Ingest(r Report) error {
	if err := sv.agg.Absorb(sv.acc, r); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	sv.count++
	return nil
}

// IngestBatch records a batch of reports atomically: the whole batch is
// validated before any state changes, so a malformed element leaves the
// server exactly as it was.
func (sv *Server) IngestBatch(reports []Report) error {
	for i, r := range reports {
		if err := sv.agg.Check(r); err != nil {
			return fmt.Errorf("ldp: batch element %d: %w", i, err)
		}
	}
	for _, r := range reports {
		// Check passed, so Absorb cannot fail (the Aggregator contract).
		if err := sv.agg.Absorb(sv.acc, r); err != nil {
			return fmt.Errorf("ldp: validated report failed to absorb: %w", err)
		}
		sv.count++
	}
	return nil
}

// Count returns the number of reports collected so far.
func (sv *Server) Count() float64 { return sv.count }

// Snap returns an immutable point-in-time Snapshot of the server: a copy of
// the accumulator, the report count, the mechanism identity, and the
// monotonic snapshot epoch — the same value a Collector or RemoteCollector
// produces, so one Estimator answers any of them.
func (sv *Server) Snap() Snapshot {
	sv.snapMu.Lock()
	if sv.epoch == 0 || sv.count != sv.snapCount {
		sv.epoch++
		sv.snapCount = sv.count
	}
	epoch := sv.epoch
	sv.snapMu.Unlock()
	return NewSnapshot(sv.acc, sv.count, epoch, sv.info)
}

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
