package ldp

import (
	"errors"
	"fmt"

	"repro/internal/strategy"
	"repro/internal/transport"
)

// MechanismInfo identifies the mechanism configuration a snapshot was
// aggregated under: family name, domain, privacy budget, and — for strategy
// matrices, where the first three cannot distinguish two different channels —
// the StrategyDigest of the exact matrix. It is the same struct /healthz
// serves and every v2 snapshot frame carries, so one identity travels the
// whole read path.
//
// A zero field means "undeclared" (e.g. a snapshot decoded from a v1 frame):
// identity checks compare each field only when both sides declare it.
type MechanismInfo = transport.Info

// MechanismInfoOf derives the identity of an aggregator: strategy aggregators
// are fingerprinted by StrategyDigest, frequency oracles by (name, domain, ε)
// — which fully determines them, so no digest is needed. An aggregator
// exposing neither is identified by its domain alone.
func MechanismInfoOf(agg Aggregator) MechanismInfo {
	if agg == nil {
		return MechanismInfo{}
	}
	if sa, ok := agg.(interface{ Strategy() *strategy.Strategy }); ok {
		s := sa.Strategy()
		return MechanismInfo{Mechanism: "strategy", Domain: s.Domain(), Epsilon: s.Eps, Digest: StrategyDigest(s)}
	}
	info := MechanismInfo{Domain: agg.Domain()}
	if o, ok := agg.(interface {
		Name() string
		Epsilon() float64
	}); ok {
		info.Mechanism = o.Name()
		info.Epsilon = o.Epsilon()
	}
	return info
}

// infoMismatch compares two identities field-wise, each field only when both
// sides declare it (a zero value means undeclared). It returns a descriptive
// error on the first conflict — the digest check is what keeps two different
// strategy matrices with identical name/domain/ε from being conflated.
func infoMismatch(a, b MechanismInfo) error {
	if a.Domain != 0 && b.Domain != 0 && a.Domain != b.Domain {
		return fmt.Errorf("domain %d vs %d", a.Domain, b.Domain)
	}
	if a.Mechanism != "" && b.Mechanism != "" && a.Mechanism != b.Mechanism {
		return fmt.Errorf("mechanism %q vs %q", a.Mechanism, b.Mechanism)
	}
	if a.Epsilon > 0 && b.Epsilon > 0 && a.Epsilon != b.Epsilon {
		return fmt.Errorf("ε %v vs %v", a.Epsilon, b.Epsilon)
	}
	if a.Digest != "" && b.Digest != "" && a.Digest != b.Digest {
		return fmt.Errorf("mechanism digest %s vs %s", a.Digest, b.Digest)
	}
	return nil
}

// mergeInfo combines two compatible identities, preferring declared fields —
// so merging a v2 snapshot with a v1 one keeps the richer identity.
func mergeInfo(a, b MechanismInfo) MechanismInfo {
	out := a
	if out.Mechanism == "" {
		out.Mechanism = b.Mechanism
	}
	if out.Domain == 0 {
		out.Domain = b.Domain
	}
	if out.Epsilon == 0 {
		out.Epsilon = b.Epsilon
	}
	if out.Digest == "" {
		out.Digest = b.Digest
	}
	return out
}

// Snapshot is an immutable point-in-time view of a collector: the merged
// aggregation accumulator, the number of reports it reflects, the mechanism
// identity it was aggregated under, and the producing collector's monotonic
// snapshot epoch. Collector.Snap and RemoteCollector.Snap both produce one,
// an Estimator answers any of them, and two snapshots of the same mechanism
// Merge into one — which is all multi-collector fan-in is.
//
// The zero Snapshot is valid and empty. Snapshot values may be copied and
// shared freely across goroutines; no method mutates one.
type Snapshot struct {
	state []float64
	count float64
	epoch uint64
	info  MechanismInfo
}

// NewSnapshot assembles a snapshot from its parts (the state slice is
// copied). Collectors produce snapshots via Snap; this constructor exists for
// transports and tests that carry the parts separately.
func NewSnapshot(state []float64, count float64, epoch uint64, info MechanismInfo) Snapshot {
	st := make([]float64, len(state))
	copy(st, state)
	return Snapshot{state: st, count: count, epoch: epoch, info: info}
}

// State returns a copy of the merged accumulator.
func (s Snapshot) State() []float64 {
	out := make([]float64, len(s.state))
	copy(out, s.state)
	return out
}

// StateLen returns the accumulator width without copying.
func (s Snapshot) StateLen() int { return len(s.state) }

// Count returns the number of reports the snapshot reflects.
func (s Snapshot) Count() float64 { return s.count }

// Epoch returns the producing collector's monotonic snapshot sequence: it
// advances exactly when the observed state changes, so equal epochs from one
// collector mean identical snapshots. A merged snapshot carries the largest
// constituent epoch.
func (s Snapshot) Epoch() uint64 { return s.epoch }

// Info returns the mechanism identity the snapshot was aggregated under.
func (s Snapshot) Info() MechanismInfo { return s.info }

// Merge combines two snapshots of the same mechanism into the snapshot of
// the concatenated report streams — the accumulator contract makes that a
// plain element-wise sum, so fan-in across collector shards is a pure value
// operation. Merge rejects a mechanism-identity conflict (digest mismatch
// included) or an accumulator-width mismatch; reports randomized under one
// configuration must never be summed under another.
func (s Snapshot) Merge(other Snapshot) (Snapshot, error) {
	if err := infoMismatch(s.info, other.info); err != nil {
		return Snapshot{}, fmt.Errorf("ldp: cannot merge snapshots: %w", err)
	}
	if len(s.state) != len(other.state) {
		return Snapshot{}, fmt.Errorf("ldp: cannot merge snapshots: state width %d vs %d", len(s.state), len(other.state))
	}
	merged := make([]float64, len(s.state))
	for i := range merged {
		merged[i] = s.state[i] + other.state[i]
	}
	epoch := s.epoch
	if other.epoch > epoch {
		epoch = other.epoch
	}
	return Snapshot{
		state: merged,
		count: s.count + other.count,
		epoch: epoch,
		info:  mergeInfo(s.info, other.info),
	}, nil
}

// Diff is the inverse of Merge: it subtracts an older snapshot of the same
// mechanism from this one, yielding the snapshot of exactly the reports that
// arrived after the older cut — a sliding window as a pure value operation.
// Because accumulators are element-wise sums of per-report contributions, the
// subtraction is exact: for snapshots a ⊇ b of one collector,
// a.Diff(b).Merge(b) is bit-identical to a.
//
// Diff rejects a mechanism-identity conflict or width mismatch like Merge,
// and additionally refuses epoch inversion (other.Epoch() > s.Epoch()): a
// window's endpoints must be ordered, and subtracting a newer snapshot from
// an older one would fabricate negative report counts. The result keeps the
// newer endpoint's epoch.
func (s Snapshot) Diff(other Snapshot) (Snapshot, error) {
	if err := infoMismatch(s.info, other.info); err != nil {
		return Snapshot{}, fmt.Errorf("ldp: cannot diff snapshots: %w", err)
	}
	if len(s.state) != len(other.state) {
		return Snapshot{}, fmt.Errorf("ldp: cannot diff snapshots: state width %d vs %d", len(s.state), len(other.state))
	}
	if other.epoch > s.epoch {
		return Snapshot{}, fmt.Errorf("ldp: cannot diff snapshots: epoch inversion (older epoch %d > newer epoch %d)", other.epoch, s.epoch)
	}
	diff := make([]float64, len(s.state))
	for i := range diff {
		diff[i] = s.state[i] - other.state[i]
	}
	return Snapshot{
		state: diff,
		count: s.count - other.count,
		epoch: s.epoch,
		info:  mergeInfo(s.info, other.info),
	}, nil
}

// MergeSnapshots folds any number of snapshots into one via Merge. At least
// one snapshot is required.
func MergeSnapshots(snaps ...Snapshot) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, errors.New("ldp: no snapshots to merge")
	}
	out := snaps[0]
	for _, s := range snaps[1:] {
		var err error
		if out, err = out.Merge(s); err != nil {
			return Snapshot{}, err
		}
	}
	return out, nil
}
