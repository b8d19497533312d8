package ldp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/transport"
)

// StatusError re-exports the transport's definitive-response error so fleet
// and remote-collector callers can classify failures (Temporary or not)
// without importing an internal package.
type StatusError = transport.StatusError

// BreakerPolicy shapes the per-shard circuit breaker a Fleet keeps: how many
// consecutive failures trip it open and how long it refuses before probing
// again. The zero value uses sane defaults (5 failures, 5s cooldown); the
// Now field is injectable so tests pin the clock.
type BreakerPolicy = retry.BreakerPolicy

// ErrNoReadyShards reports that an ingest had no live backend to route to:
// every member is gated out (not ready, breaker open, or never registered).
var ErrNoReadyShards = errors.New("ldp: no ready shards to route to")

// QuorumError reports a merge refused in strict mode: fewer shards
// contributed than the configured quorum, so a partial estimate was withheld
// rather than served. The Coverage says exactly who was missing and why.
type QuorumError struct {
	Merged   int
	Quorum   int
	Coverage Coverage
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("ldp: merged %d of %d shards, below the quorum of %d (%s)",
		e.Merged, e.Coverage.Total, e.Quorum, e.Coverage)
}

// CoverageStatus is one shard's contribution to a merged snapshot.
type CoverageStatus int

const (
	// CoverageFresh: the shard answered this merge with a live snapshot.
	CoverageFresh CoverageStatus = iota
	// CoverageStale: the shard was unreachable (or its breaker open); its
	// last successfully fetched snapshot was merged instead, so the estimate
	// undercounts only what the shard absorbed since then.
	CoverageStale
	// CoverageMissing: the shard contributed nothing — unreachable with no
	// stale snapshot to fall back on (or stale fallback disabled).
	CoverageMissing
)

func (s CoverageStatus) String() string {
	switch s {
	case CoverageFresh:
		return "fresh"
	case CoverageStale:
		return "stale"
	case CoverageMissing:
		return "missing"
	}
	return "unknown"
}

// ShardCoverage annotates one shard's part in a merged snapshot: what it
// contributed (fresh, stale, nothing), the epoch and count of that
// contribution — for a missing shard, the last-good epoch and count the
// fleet ever saw, so an operator knows how much the partial merge is missing
// — and the error that degraded it.
type ShardCoverage struct {
	Endpoint string
	Status   CoverageStatus
	// Epoch and Count describe the merged contribution (fresh/stale), or the
	// last-good snapshot the fleet holds for a missing shard (zero if none).
	Epoch uint64
	Count float64
	// Err is why the shard did not contribute fresh state ("" when fresh).
	Err string
}

// Coverage is the honesty annotation on a degraded merge: how many of the
// fleet's shards contributed, how (fresh vs stale), and per-shard detail for
// the ones that did not. A merge under failure returns a partial Snapshot
// plus a Coverage saying exactly what it covers, instead of failing — or
// worse, silently undercounting.
type Coverage struct {
	Total int // registered shards at merge time
	Fresh int // shards that answered this merge
	Stale int // shards merged from their last-good snapshot
	// Shards has one entry per member in registration order.
	Shards []ShardCoverage
}

// Merged returns the number of shards that contributed state (fresh+stale).
func (c Coverage) Merged() int { return c.Fresh + c.Stale }

// Complete reports whether every registered shard contributed fresh state.
func (c Coverage) Complete() bool { return c.Fresh == c.Total }

// DriftRatio measures how unevenly the merged population is spread over the
// contributing shards: the largest contributed count over the smallest, with
// the extreme shards returned for naming in warnings. Missing shards are
// excluded (their gap is reported by Merged/Total). With fewer than two
// contributing shards the ratio is 0 (no drift to speak of); a zero minimum
// against a nonzero maximum is +Inf. Uneven counts are legitimate — shards
// can serve uneven populations — but an order-of-magnitude split is what a
// shard restored from a stale checkpoint looks like next to its peers.
func (c Coverage) DriftRatio() (ratio float64, minShard, maxShard ShardCoverage) {
	n := 0
	for _, sc := range c.Shards {
		if sc.Status == CoverageMissing {
			continue
		}
		if n == 0 || sc.Count < minShard.Count {
			minShard = sc
		}
		if n == 0 || sc.Count > maxShard.Count {
			maxShard = sc
		}
		n++
	}
	if n < 2 || maxShard.Count == 0 {
		return 0, minShard, maxShard
	}
	if minShard.Count == 0 {
		return math.Inf(1), minShard, maxShard
	}
	return maxShard.Count / minShard.Count, minShard, maxShard
}

// String renders the operator-facing summary, e.g. "3/4 shards (1 missing)".
func (c Coverage) String() string {
	s := fmt.Sprintf("%d/%d shards", c.Merged(), c.Total)
	var notes []string
	if c.Stale > 0 {
		notes = append(notes, fmt.Sprintf("%d stale", c.Stale))
	}
	if missing := c.Total - c.Merged(); missing > 0 {
		notes = append(notes, fmt.Sprintf("%d missing", missing))
	}
	if len(notes) > 0 {
		s += " (" + strings.Join(notes, ", ") + ")"
	}
	return s
}

// MemberState is a shard's position in the fleet's health gate.
type MemberState struct {
	Endpoint string `json:"endpoint"`
	// Ready is the gate: only ready members receive routed ingest. A member
	// turns not-ready when its readiness probe says so (draining,
	// recovering) or after UnhealthyAfter consecutive failed probes.
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// Breaker is the circuit breaker position ("closed", "open", "half-open").
	Breaker string `json:"breaker"`
	// LastEpoch/LastCount are from the last successful snapshot fetch — the
	// "last good" state a degraded merge falls back on.
	LastEpoch uint64  `json:"last_epoch"`
	LastCount float64 `json:"last_count"`
	// Verified reports whether the mechanism-identity handshake succeeded;
	// a member registered while unreachable is verified on first contact.
	Verified bool `json:"verified"`
}

// fleetMember is one registered shard: its client, breaker, health gate, and
// last-good snapshot.
type fleetMember struct {
	endpoint string
	rc       *RemoteCollector
	breaker  *retry.Breaker

	mu          sync.Mutex
	ready       bool
	reason      string
	gated       bool   // operator/scenario override: held out of routing
	gateReason  string // why, surfaced in MemberState.Reason
	probeFails  int
	verified    bool
	hasLastGood bool
	lastGood    Snapshot
}

// setReady updates the gate under the member lock.
func (m *fleetMember) setReady(ready bool, reason string) {
	m.mu.Lock()
	m.ready, m.reason = ready, reason
	m.mu.Unlock()
}

// Fleet is the failure-aware fan-in layer over N collector shards: dynamic
// membership (Register/Deregister), health-gated routing (a shard that is
// draining, recovering, unreachable, or circuit-broken stops receiving
// ingest), and merges with graceful degradation — Snap returns a partial
// merged Snapshot annotated with Coverage instead of failing when k of N
// shards are down, and refuses below the quorum in strict mode.
//
// Every member shares one retry discipline (jittered exponential backoff,
// per-attempt timeouts, definitive-vs-retryable classification) and gets its
// own circuit breaker, so a flapping shard degrades to "stale snapshot +
// annotation" rather than head-of-line-blocking every merge.
//
// A Fleet is safe for concurrent use.
type Fleet struct {
	agg            Aggregator
	info           MechanismInfo
	policy         RetryPolicy
	breakerPolicy  BreakerPolicy
	quorum         int
	staleFallback  bool
	unhealthyAfter int
	hc             *http.Client

	mu      sync.Mutex
	members map[string]*fleetMember
	order   []string // registration order: deterministic iteration + routing
	next    int      // round-robin routing cursor
	// bindings maps an idempotency key to the shard it was first routed to.
	// A keyed request that failed ambiguously (the shard may have absorbed
	// it and the response was lost) MUST replay on the same shard — any
	// other shard's idempotency cache has never seen the key and would
	// absorb a second copy. Only a never-sent key may pick a fresh shard.
	// The table holds the newest IdempotencyHorizon keys across all shards,
	// while each shard holds that many of its own share, so the router
	// forgets a key first: a retry arriving after its key left this table
	// may pick another shard and absorb again, though the shard that
	// absorbed it still remembers the key.
	bindings *transport.KeyHorizon[string]

	// bindingLog, when configured, makes the key→shard table durable: every
	// fresh bind is appended (and fsynced) before the forward ships, and a
	// restarted router replays the log so a keyed retry still lands on the
	// shard whose idempotency cache first saw the key.
	bindingLogPath string
	bindingLog     *durable.BindingLog

	// fm is the armed metrics handle set (nil until a FleetServer arms it via
	// enableMetrics); every observation site pays one atomic load when unarmed.
	fm atomic.Pointer[fleetMetrics]
}

// fleetMetrics is the fleet's observability handle set: probe outcomes,
// breaker transitions, forward retries, merge outcomes, and per-shard
// routability/coverage.
type fleetMetrics struct {
	probes      *obs.CounterVec // ldp_fleet_probes_total{outcome}
	transitions *obs.CounterVec // ldp_fleet_breaker_transitions_total{to}
	retries     *obs.Counter    // ldp_fleet_forward_retries_total
	merges      *obs.CounterVec // ldp_fleet_merges_total{outcome}
	shardReady  *obs.GaugeVec   // ldp_fleet_shard_ready{endpoint}
	covFresh    *obs.Gauge
	covStale    *obs.Gauge
	covMissing  *obs.Gauge
}

// enableMetrics registers the fleet's families on reg and starts feeding
// them. NewFleetServer calls it; a library-embedded Fleet stays unarmed and
// pays a single nil check per event.
func (f *Fleet) enableMetrics(reg *obs.Registry) {
	m := &fleetMetrics{
		probes: reg.CounterVec("ldp_fleet_probes_total",
			"Health-probe outcomes per member, by result (ready, not_ready, unreachable).", "outcome"),
		transitions: reg.CounterVec("ldp_fleet_breaker_transitions_total",
			"Per-shard circuit-breaker state transitions, by the state entered.", "to"),
		retries: reg.Counter("ldp_fleet_forward_retries_total",
			"Retried shard requests — one count per backoff pause the retry loop took."),
		merges: reg.CounterVec("ldp_fleet_merges_total",
			"Fan-in merge outcomes: complete, degraded, quorum_refused, empty, or error.", "outcome"),
		shardReady: reg.GaugeVec("ldp_fleet_shard_ready",
			"Per-shard routability: 1 when the member receives routed ingest, 0 when gated out.", "endpoint"),
		covFresh: reg.Gauge("ldp_fleet_coverage_fresh",
			"Shards that contributed fresh state to the most recent merge."),
		covStale: reg.Gauge("ldp_fleet_coverage_stale",
			"Shards that contributed stale last-good state to the most recent merge."),
		covMissing: reg.Gauge("ldp_fleet_coverage_missing",
			"Shards that contributed nothing to the most recent merge."),
	}
	reg.GaugeFunc("ldp_fleet_members",
		"Registered fleet members.",
		func() float64 {
			f.mu.Lock()
			n := len(f.members)
			f.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("ldp_fleet_ready_members",
		"Members currently routable (ready and breaker not open).",
		func() float64 { return float64(f.ReadyCount()) })
	f.fm.Store(m)
}

func (f *Fleet) observeProbe(outcome string) {
	if m := f.fm.Load(); m != nil {
		m.probes.With(outcome).Inc()
	}
}

func (f *Fleet) observeShardReady(endpoint string, ready bool) {
	if m := f.fm.Load(); m != nil {
		v := 0.0
		if ready {
			v = 1
		}
		m.shardReady.With(endpoint).Set(v)
	}
}

func (f *Fleet) observeBreaker(to retry.BreakerState) {
	if m := f.fm.Load(); m != nil {
		m.transitions.With(to.String()).Inc()
	}
}

func (f *Fleet) observeRetry() {
	if m := f.fm.Load(); m != nil {
		m.retries.Inc()
	}
}

func (f *Fleet) observeMerge(outcome string, cov Coverage) {
	m := f.fm.Load()
	if m == nil {
		return
	}
	m.merges.With(outcome).Inc()
	m.covFresh.Set(float64(cov.Fresh))
	m.covStale.Set(float64(cov.Stale))
	m.covMissing.Set(float64(cov.Total - cov.Fresh - cov.Stale))
}

// FleetOption configures a Fleet.
type FleetOption func(*Fleet)

// WithFleetRetryPolicy sets the retry discipline every member's client uses
// (default DefaultRemoteRetryPolicy). Tests pin it deterministic.
func WithFleetRetryPolicy(p RetryPolicy) FleetOption {
	return func(f *Fleet) { f.policy = p }
}

// WithFleetBreakerPolicy shapes each member's circuit breaker (default: 5
// consecutive failures trip it, 5s cooldown).
func WithFleetBreakerPolicy(p BreakerPolicy) FleetOption {
	return func(f *Fleet) { f.breakerPolicy = p }
}

// WithFleetQuorum sets strict mode: a merge that would cover fewer than q
// shards (fresh + stale) returns a *QuorumError instead of a partial
// snapshot. 0 (the default) serves any non-empty coverage.
func WithFleetQuorum(q int) FleetOption {
	return func(f *Fleet) { f.quorum = q }
}

// WithFleetStaleFallback controls whether an unreachable or circuit-broken
// shard contributes its last-good snapshot to a merge (marked stale in the
// Coverage) or is left out entirely (marked missing). Default true: a
// flapping shard degrades the estimate's freshness, not its coverage.
func WithFleetStaleFallback(on bool) FleetOption {
	return func(f *Fleet) { f.staleFallback = on }
}

// WithFleetUnhealthyAfter sets how many consecutive failed health probes
// gate a member out of ingest routing (default 2). A shard that reports
// itself not-ready is gated immediately regardless.
func WithFleetUnhealthyAfter(n int) FleetOption {
	return func(f *Fleet) {
		if n > 0 {
			f.unhealthyAfter = n
		}
	}
}

// WithFleetHTTPClient substitutes the http.Client every member's transport
// uses (timeouts, test doubles).
func WithFleetHTTPClient(hc *http.Client) FleetOption {
	return func(f *Fleet) { f.hc = hc }
}

// WithFleetBindingLog persists the idempotency-key→shard bindings through an
// append-only log at path: NewFleet replays it (latest bind per key wins,
// torn tail dropped) into a table that forgets keys in the same first-seen
// order as the live one, and every fresh bind is fsynced before its batch is
// forwarded. The log is bounded like the table it backs: it is rewritten down
// to the table's contents whenever it reaches twice the idempotency horizon,
// so neither the file nor a restart's replay grows with traffic. Without it the
// bindings are in-memory only, and a keyed retry that crosses a router
// restart may route to a different shard — whose idempotency cache never saw
// the key — and double-absorb.
func WithFleetBindingLog(path string) FleetOption {
	return func(f *Fleet) { f.bindingLogPath = path }
}

// NewFleet prepares an empty fleet aggregating under agg's mechanism, whose
// domain must be w's — checked as NewCollector checks it. Register shards
// with Register; route with IngestKeyed; read with Snap.
func NewFleet(agg Aggregator, w Workload, opts ...FleetOption) (*Fleet, error) {
	info, err := checkedInfo(agg, w)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		agg:            agg,
		info:           info,
		policy:         DefaultRemoteRetryPolicy(),
		staleFallback:  true,
		unhealthyAfter: 2,
		members:        make(map[string]*fleetMember),
		bindings:       transport.NewKeyHorizon[string](),
	}
	for _, o := range opts {
		o(f)
	}
	if f.bindingLogPath != "" {
		log, bindings, err := durable.OpenBindingLog(f.bindingLogPath, true)
		if err != nil {
			return nil, fmt.Errorf("ldp: open binding log: %w", err)
		}
		f.bindingLog, f.bindings = log, bindings
	}
	return f, nil
}

// Close releases the fleet's durable resources (the binding log, when
// configured). In-flight forwards finish on their own; Close is for process
// shutdown after the HTTP tier has drained.
func (f *Fleet) Close() error {
	f.mu.Lock()
	log := f.bindingLog
	f.bindingLog = nil
	f.mu.Unlock()
	if log != nil {
		return log.Close()
	}
	return nil
}

// Info returns the mechanism identity the fleet aggregates under.
func (f *Fleet) Info() MechanismInfo { return f.info }

// Register adds a shard endpoint to the fleet after a mechanism-identity
// handshake. A mismatched mechanism is a definitive configuration error and
// the shard is refused; an unreachable shard is admitted not-ready (it may
// be booting or recovering) and verified on first successful contact — the
// snapshot path re-checks identity on every fetch regardless, so an
// unverified shard can never poison a merge. Registering an endpoint twice
// is a no-op.
func (f *Fleet) Register(ctx context.Context, endpoint string) error {
	f.mu.Lock()
	if _, ok := f.members[endpoint]; ok {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()

	opts := []RemoteOption{WithRemoteRetryPolicy(f.retryPolicy())}
	if f.hc != nil {
		opts = append(opts, WithRemoteHTTPClient(f.hc))
	}
	rc, err := NewRemoteCollector(endpoint, f.agg, opts...)
	if err != nil {
		return err
	}
	bp := f.breakerPolicy
	prevChange := bp.OnStateChange
	bp.OnStateChange = func(from, to retry.BreakerState) {
		f.observeBreaker(to)
		if prevChange != nil {
			prevChange(from, to)
		}
	}
	m := &fleetMember{
		endpoint: endpoint,
		rc:       rc,
		breaker:  retry.NewBreaker(bp),
	}
	if err := rc.Verify(ctx); err != nil {
		if definitive(err) || errors.Is(err, errMechanismMismatch) {
			// The shard answered and it is the wrong mechanism: refuse.
			return fmt.Errorf("ldp: register %s: %w", endpoint, err)
		}
		// Unreachable: admit gated-out; the probe loop brings it in when it
		// comes up and verifies then.
		m.setReady(false, "unreachable at registration")
	} else {
		m.mu.Lock()
		m.ready, m.verified = true, true
		m.mu.Unlock()
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.members[endpoint]; ok {
		return nil // lost a registration race; keep the winner
	}
	f.members[endpoint] = m
	f.order = append(f.order, endpoint)
	return nil
}

// retryPolicy returns the fleet's forward-retry policy with the metrics
// observer chained in: each backoff pause counts one forward retry.
func (f *Fleet) retryPolicy() retry.Policy {
	pol := f.policy
	prev := pol.OnRetry
	pol.OnRetry = func(attempt int, err error) {
		f.observeRetry()
		if prev != nil {
			prev(attempt, err)
		}
	}
	return pol
}

// Deregister removes a shard from membership — the operator's statement that
// the shard is gone, not a health event (health gating handles those). Keys
// bound to it rebind on their next forward. It reports whether the endpoint
// was a member.
func (f *Fleet) Deregister(endpoint string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.members[endpoint]; !ok {
		return false
	}
	delete(f.members, endpoint)
	f.observeShardReady(endpoint, false)
	for i, ep := range f.order {
		if ep == endpoint {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	if f.next >= len(f.order) {
		f.next = 0
	}
	return true
}

// Gate forces the member at endpoint out of ingest routing until Ungate,
// regardless of what its readiness probes say — the drain hook an operator
// (or a load scenario) drives to take a healthy shard out of rotation while
// leaving it registered, mergeable, and serving reads. Reason is surfaced in
// MemberState.Reason. Returns false for an unregistered endpoint.
func (f *Fleet) Gate(endpoint, reason string) bool {
	f.mu.Lock()
	m, ok := f.members[endpoint]
	f.mu.Unlock()
	if !ok {
		return false
	}
	if reason == "" {
		reason = "gated by operator"
	}
	m.mu.Lock()
	m.gated, m.gateReason = true, reason
	m.ready, m.reason = false, reason
	m.mu.Unlock()
	return true
}

// Ungate lifts a Gate. The member re-enters routing immediately when its
// mechanism handshake already succeeded; otherwise the next probe re-admits
// it the usual way. Returns false for an unregistered endpoint.
func (f *Fleet) Ungate(endpoint string) bool {
	f.mu.Lock()
	m, ok := f.members[endpoint]
	f.mu.Unlock()
	if !ok {
		return false
	}
	m.mu.Lock()
	m.gated, m.gateReason = false, ""
	if m.verified {
		m.ready, m.reason = true, ""
	}
	m.mu.Unlock()
	return true
}

// list snapshots the membership in registration order.
func (f *Fleet) list() []*fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*fleetMember, 0, len(f.order))
	for _, ep := range f.order {
		out = append(out, f.members[ep])
	}
	return out
}

// Probe runs one health round: every member's readiness endpoint is asked
// (concurrently), the gate updates — a shard reporting not-ready (draining,
// recovering) is gated out immediately, an unreachable one after
// UnhealthyAfter consecutive failures, a recovered one is re-admitted and
// verified if registration never managed to. Call it on an interval; the
// fleet does not poll on its own.
func (f *Fleet) Probe(ctx context.Context) []MemberState {
	members := f.list()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *fleetMember) {
			defer wg.Done()
			f.probeMember(ctx, m)
		}(m)
	}
	wg.Wait()
	return f.Members()
}

func (f *Fleet) probeMember(ctx context.Context, m *fleetMember) {
	ready, reason, err := m.rc.Readyz(ctx)
	outcome := "ready"
	switch {
	case err != nil:
		outcome = "unreachable"
	case !ready:
		outcome = "not_ready"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Registered after the unlock defer, so this runs before it (LIFO) and
	// reads the member's settled routing state under its lock.
	defer func() {
		f.observeProbe(outcome)
		f.observeShardReady(m.endpoint, m.ready)
	}()
	switch {
	case err != nil:
		m.probeFails++
		if m.probeFails >= f.unhealthyAfter {
			m.ready, m.reason = false, fmt.Sprintf("unreachable (%d consecutive probe failures): %v", m.probeFails, err)
		}
	case !ready:
		// The shard said so itself: gate immediately, no threshold.
		m.probeFails = 0
		m.ready, m.reason = false, reason
	default:
		m.probeFails = 0
		if m.gated {
			// A manual gate outlasts probe rounds: the shard is healthy but an
			// operator (or a load scenario) is holding it out of routing.
			m.ready, m.reason = false, m.gateReason
			return
		}
		m.ready, m.reason = true, ""
		if !m.verified {
			// First successful contact with a shard admitted unreachable:
			// complete the handshake before routing to it.
			m.mu.Unlock()
			verr := m.rc.Verify(ctx)
			m.mu.Lock()
			if verr != nil {
				m.ready, m.reason = false, fmt.Sprintf("mechanism handshake failed: %v", verr)
			} else {
				m.verified = true
			}
		}
	}
}

// Epochs polls every member's cheap /healthz (count, epoch) view
// concurrently and returns endpoint→epoch for the members that answered —
// the inexpensive "did anything change" round a watcher runs between full
// snapshot merges. Unreachable members are simply absent from the map; a
// flapping shard makes the round partial, not failed.
func (f *Fleet) Epochs(ctx context.Context) map[string]uint64 {
	members := f.list()
	type probe struct {
		epoch uint64
		ok    bool
	}
	out := make([]probe, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *fleetMember) {
			defer wg.Done()
			if h, err := m.rc.Healthz(ctx); err == nil {
				out[i] = probe{h.Epoch, true}
			}
		}(i, m)
	}
	wg.Wait()
	res := make(map[string]uint64, len(members))
	for i, p := range out {
		if p.ok {
			res[members[i].endpoint] = p.epoch
		}
	}
	return res
}

// Members reports every member's health-gate state in registration order.
func (f *Fleet) Members() []MemberState {
	members := f.list()
	out := make([]MemberState, 0, len(members))
	for _, m := range members {
		m.mu.Lock()
		st := MemberState{
			Endpoint: m.endpoint,
			Ready:    m.ready,
			Reason:   m.reason,
			Breaker:  m.breaker.State().String(),
			Verified: m.verified,
		}
		if m.hasLastGood {
			st.LastEpoch, st.LastCount = m.lastGood.Epoch(), m.lastGood.Count()
		}
		m.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// ReadyCount returns how many members are currently routable.
func (f *Fleet) ReadyCount() int {
	n := 0
	for _, m := range f.list() {
		if f.routable(m) {
			n++
		}
	}
	return n
}

// routable reports whether ingest may be routed to m right now.
func (f *Fleet) routable(m *fleetMember) bool {
	m.mu.Lock()
	ready := m.ready
	m.mu.Unlock()
	return ready && m.breaker.State() != retry.BreakerOpen
}

// pickLocked chooses the next routable member round-robin, or nil. Caller
// holds f.mu.
func (f *Fleet) pickLocked() *fleetMember {
	n := len(f.order)
	for i := 0; i < n; i++ {
		m := f.members[f.order[(f.next+i)%n]]
		if f.routable(m) {
			f.next = (f.next + i + 1) % n
			return m
		}
	}
	return nil
}

// bindMember resolves the shard a keyed request must go to: the one the key
// is bound to if it was ever forwarded (even if that shard is currently
// gated out or circuit-broken — replay safety beats availability), otherwise
// the next routable member, binding the key to it atomically. An unkeyed
// request just rotates. Returns nil when a fresh key has no routable shard.
func (f *Fleet) bindMember(key string) (*fleetMember, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if key == "" {
		return f.pickLocked(), nil
	}
	if ep, ok := f.bindings.Get(key); ok {
		if m, ok := f.members[ep]; ok {
			return m, nil
		}
		// The bound shard was deregistered — the operator declared it gone,
		// taking its idempotency history with it. Rebind.
		f.bindings.Delete(key)
	}
	m := f.pickLocked()
	if m != nil {
		if f.bindingLog != nil {
			// Persist before the forward can ship: an unlogged bind that
			// crossed a restart would let a retry land on a different shard
			// and double-absorb. The fsync happens under f.mu, but only once
			// per fresh key — replays and unkeyed traffic never pay it.
			if err := f.bindingLog.Append(durable.Binding{Key: key, Endpoint: m.endpoint}, f.bindings); err != nil {
				return nil, fmt.Errorf("ldp: persist key binding: %w", err)
			}
		}
		f.bindings.Put(key, m.endpoint)
	}
	return m, nil
}

// IngestKeyed forwards one already-keyed, already-framed request body — the
// frames a router validated, or one a caller built with EncodeReportsFrame —
// to a shard verbatim, preserving the client's idempotency key end to end.
// The first forward of a key binds it to the chosen shard; every retry (the
// client's or this call's internal backoff) replays on that same shard,
// where the key is remembered, so an ambiguous failure can never
// double-absorb on a neighbor. A request the shard would not deduplicate —
// no key, or one over transport.MaxIdempotencyKeyLen, which the shard
// ignores — is forwarded unkeyed, never bound, and attempted once:
// re-POSTing it after an ambiguous failure would absorb it twice, so the
// failure surfaces and the client decides. It returns the shard's accepted
// count; the error, if any, carries the shard's *StatusError for status relay
// (or ErrNoReadyShards when a fresh key had nowhere to go).
func (f *Fleet) IngestKeyed(ctx context.Context, frames []byte, key string) (int, error) {
	if len(key) > transport.MaxIdempotencyKeyLen {
		key = ""
	}
	pol := f.retryPolicy()
	if key == "" {
		pol.MaxAttempts = 1
	}
	m, err := f.bindMember(key)
	if err != nil {
		// The binding could not be made durable; refuse the forward as
		// retryable rather than absorb under a bind a restart would forget.
		return 0, err
	}
	if m == nil {
		return 0, ErrNoReadyShards
	}
	var accepted int
	err = retry.Do(ctx, pol, func(actx context.Context) error {
		a, perr := m.rc.client.PostFrames(actx, frames, key)
		accepted = a
		return classifyTransportErr(perr)
	})
	// The breaker counts weather only. A definitive answer — the shard's 4xx
	// for a batch that fails Check — means the shard is alive and talking
	// (gather's rule for historical reads): a client's malformed batches must
	// not gate a healthy shard out of routing.
	if err == nil || definitive(err) {
		m.breaker.Success()
	} else {
		m.breaker.Failure()
	}
	if err != nil {
		return accepted, fmt.Errorf("ldp: shard %s: %w", m.endpoint, err)
	}
	return accepted, nil
}

// Snap merges the fleet into one Snapshot with graceful degradation. Every
// member is asked concurrently (members with open breakers are not even
// asked — that is the point of the breaker); a member that answers
// contributes fresh state and refreshes its last-good snapshot, a member
// that fails contributes its last-good snapshot (marked stale) when the
// fallback is enabled, and otherwise is reported missing with the last-good
// epoch and count the estimate now lacks. The returned Coverage says exactly
// what the Snapshot covers; it is never silently partial.
//
// In strict mode (WithFleetQuorum) a merge covering fewer shards than the
// quorum returns *QuorumError. A fleet with no members, or one where nothing
// at all contributed, returns an error rather than a zero snapshot.
func (f *Fleet) Snap(ctx context.Context) (Snapshot, Coverage, error) {
	return f.gather(true, "a snapshot", func(rc *RemoteCollector) (Snapshot, error) {
		return rc.Snap(ctx)
	})
}

// SnapAt merges the fleet's retained history as of epoch: every member is
// asked (concurrently) for the newest epoch it retains at or below the
// requested one — members checkpoint on their own schedules, so floor
// semantics are the only ones that exist fleet-wide — and the answers merge
// into one historical Snapshot. The per-shard Coverage carries the epoch each
// member actually served, so the caller can see how ragged the cut is.
//
// Unlike Snap there is no stale fallback: a last-good LIVE snapshot is from
// the wrong point in time, and merging it would silently shift the window.
// A member that cannot answer (unreachable, breaker open, no history, epoch
// not retained) is reported missing with the error. Quorum applies as in
// Snap; a fleet where nothing answered returns an error.
func (f *Fleet) SnapAt(ctx context.Context, epoch uint64) (Snapshot, Coverage, error) {
	return f.gather(false, fmt.Sprintf("a historical snapshot at epoch %d", epoch), func(rc *RemoteCollector) (Snapshot, error) {
		return rc.SnapAtNearest(ctx, epoch)
	})
}

// gather is the one fan-in behind Snap and SnapAt: fetch runs against every
// member concurrently (breaker permitting), the answers merge, and the
// quorum and merge-outcome accounting apply. live selects the live read's
// rules — an answer refreshes the member's last-good snapshot, a failed
// member falls back on it (stale) when the fleet allows, and every failure
// counts against the breaker. A historical read (live false) has no fallback,
// and a definitive answer ("epoch not retained", "no history") means the
// shard is alive and talking, so only transport-level failure counts against
// its breaker. what names the read in the nothing-contributed error.
func (f *Fleet) gather(live bool, what string, fetch func(*RemoteCollector) (Snapshot, error)) (Snapshot, Coverage, error) {
	members := f.list()
	cov := Coverage{Total: len(members), Shards: make([]ShardCoverage, len(members))}
	if len(members) == 0 {
		return Snapshot{}, cov, errors.New("ldp: fleet has no members")
	}

	contributed := make([]*Snapshot, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *fleetMember) {
			defer wg.Done()
			sc := &cov.Shards[i]
			sc.Endpoint = m.endpoint
			err := m.breaker.Allow()
			if err == nil {
				var snap Snapshot
				if snap, err = fetch(m.rc); err == nil {
					m.breaker.Success()
					if live {
						m.mu.Lock()
						m.lastGood, m.hasLastGood = snap, true
						m.mu.Unlock()
					}
					sc.Status, sc.Epoch, sc.Count = CoverageFresh, snap.Epoch(), snap.Count()
					contributed[i] = &snap
					return
				}
				if !live && definitive(err) {
					m.breaker.Success()
				} else {
					m.breaker.Failure()
				}
			}
			// Degraded path: stale fallback (live reads only) or an honest gap.
			sc.Status, sc.Err = CoverageMissing, err.Error()
			if !live {
				return
			}
			m.mu.Lock()
			hasLast, last := m.hasLastGood, m.lastGood
			m.mu.Unlock()
			if hasLast {
				sc.Epoch, sc.Count = last.Epoch(), last.Count()
				if f.staleFallback {
					sc.Status = CoverageStale
					contributed[i] = &last
				}
			}
		}(i, m)
	}
	wg.Wait()

	var snaps []Snapshot
	for i, snap := range contributed {
		if snap == nil {
			continue
		}
		snaps = append(snaps, *snap)
		if cov.Shards[i].Status == CoverageFresh {
			cov.Fresh++
		} else {
			cov.Stale++
		}
	}
	if len(snaps) == 0 {
		f.observeMerge("empty", cov)
		return Snapshot{}, cov, fmt.Errorf("ldp: no shard contributed %s (%s)", what, cov)
	}
	if f.quorum > 0 && len(snaps) < f.quorum {
		f.observeMerge("quorum_refused", cov)
		return Snapshot{}, cov, &QuorumError{Merged: len(snaps), Quorum: f.quorum, Coverage: cov}
	}
	merged, err := MergeSnapshots(snaps...)
	if err != nil {
		f.observeMerge("error", cov)
		return Snapshot{}, cov, err
	}
	if cov.Complete() {
		f.observeMerge("complete", cov)
	} else {
		f.observeMerge("degraded", cov)
	}
	return merged, cov, nil
}
