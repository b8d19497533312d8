package ldp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/chaos"
)

// fleetShard is a controllable in-process shard: a real collector behind a
// switch that makes the endpoint unreachable (connection aborted mid-flight)
// on demand, plus the service handle for readiness control. reportsVia, when
// set, takes over POST /reports only (a chaos proxy around svc.Handler()), so
// probes and the handshake stay healthy while ingest misbehaves.
type fleetShard struct {
	col        *ldp.Collector
	svc        *ldp.CollectorService
	hs         *httptest.Server
	down       atomic.Bool
	reportsVia atomic.Pointer[chaos.Proxy]
}

func newFleetShard(t *testing.T, agg ldp.Aggregator, w ldp.Workload) *fleetShard {
	t.Helper()
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg))
	if err != nil {
		t.Fatal(err)
	}
	sh := &fleetShard{col: col, svc: svc}
	sh.hs = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if sh.down.Load() {
			panic(http.ErrAbortHandler) // connection reset: unreachable, not a clean 5xx
		}
		if p := sh.reportsVia.Load(); p != nil && req.Method == http.MethodPost && req.URL.Path == "/reports" {
			p.ServeHTTP(rw, req)
			return
		}
		svc.Handler().ServeHTTP(rw, req)
	}))
	t.Cleanup(sh.hs.Close)
	return sh
}

// fleetFixture builds a mechanism and n shards sharing it.
func fleetFixture(t *testing.T, domain, n int) (ldp.Aggregator, ldp.Workload, []*fleetShard) {
	t.Helper()
	w := ldp.Histogram(domain)
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*fleetShard, n)
	for i := range shards {
		shards[i] = newFleetShard(t, agg, w)
	}
	return agg, w, shards
}

// keyedForwarder drives Fleet.IngestKeyed the way the router's clients drive
// the router: every batch travels under its own idempotency key, and a batch
// the fleet did not acknowledge is forwarded again under the SAME key until
// it is — the key binds it to the shard it first went to, whose idempotency
// cache replays rather than re-absorbs. A definitive answer (a recovered
// shard's 409 naming what its write-ahead log holds under the key) retires
// the accepted prefix; any remainder continues under a fresh key.
type keyedForwarder struct {
	f       *ldp.Fleet
	name    string
	seq     int
	pending []keyedBatch
}

type keyedBatch struct {
	key     string
	reports []ldp.Report
}

func (k *keyedForwarder) nextKey() string {
	k.seq++
	return fmt.Sprintf("%s-%d", k.name, k.seq)
}

// forward sends one batch under a fresh key. On failure the batch stays
// pending, key intact, for settle to retry; the error is returned so a test
// can see which forwards hit trouble.
func (k *keyedForwarder) forward(ctx context.Context, reports []ldp.Report) error {
	return k.try(ctx, keyedBatch{key: k.nextKey(), reports: reports})
}

func (k *keyedForwarder) try(ctx context.Context, b keyedBatch) error {
	var frame bytes.Buffer
	if err := ldp.EncodeReportsFrame(&frame, b.reports); err != nil {
		return err
	}
	accepted, err := k.f.IngestKeyed(ctx, frame.Bytes(), b.key)
	if err == nil {
		return nil
	}
	var se *ldp.StatusError
	if errors.As(err, &se) && !se.Temporary() {
		if accepted >= len(b.reports) {
			return nil // answered in full under this key before the response was lost
		}
		b = keyedBatch{key: k.nextKey(), reports: b.reports[max(accepted, 0):]}
	}
	k.pending = append(k.pending, b)
	return err
}

// settle retries every pending batch once, each under its own key, and
// reports what is still unacknowledged.
func (k *keyedForwarder) settle(ctx context.Context) error {
	pending := k.pending
	k.pending = nil
	var errs []error
	for _, b := range pending {
		if err := k.try(ctx, b); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// framed is reports as one report frame — the body Fleet.IngestKeyed forwards.
func framed(t *testing.T, reports []ldp.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ldp.EncodeReportsFrame(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func registerAll(t *testing.T, ctx context.Context, f *ldp.Fleet, shards []*fleetShard) {
	t.Helper()
	for _, sh := range shards {
		if err := f.Register(ctx, sh.hs.URL); err != nil {
			t.Fatalf("register %s: %v", sh.hs.URL, err)
		}
	}
}

// The healthy path end to end: keyed ingest round-robins across registered
// shards, every batch is acknowledged on its first forward, and the merged
// snapshot is complete (every shard fresh) and holds exactly one copy of
// every report.
func TestFleetRoutesAndMergesComplete(t *testing.T) {
	const domain, total = 16, 120
	agg, w, shards := fleetFixture(t, domain, 3)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)
	if got := f.ReadyCount(); got != 3 {
		t.Fatalf("ReadyCount = %d after registering 3 live shards", got)
	}

	reports := make([]ldp.Report, total)
	for i := range reports {
		reports[i] = ldp.Report{Index: i % domain}
	}
	fwd := &keyedForwarder{f: f, name: "complete"}
	for i := 0; i < total; i += 10 {
		if err := fwd.forward(ctx, reports[i:i+10]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
	}

	snap, cov, err := f.Snap(ctx)
	if err != nil {
		t.Fatalf("snap: %v", err)
	}
	if !cov.Complete() || cov.Fresh != 3 || cov.String() != "3/3 shards" {
		t.Fatalf("coverage = %+v (%s), want complete 3/3", cov, cov)
	}
	if snap.Count() != total {
		t.Fatalf("merged count %v, want %v", snap.Count(), total)
	}
	var mass float64
	for _, v := range snap.State() {
		mass += v
	}
	if mass != total {
		t.Fatalf("merged mass %v, want %v (loss or duplication)", mass, total)
	}
	// Every shard actually took a share: the router spread the load.
	for i, sh := range shards {
		if sh.col.Count() == 0 {
			t.Fatalf("shard %d received nothing; routing did not rotate", i)
		}
	}
}

// A shard aggregating under a different mechanism must be refused at
// registration: merging across mechanisms is a correctness error, not a
// health event.
func TestFleetRefusesMismatchedShard(t *testing.T) {
	const domain = 8
	agg, w, shards := fleetFixture(t, domain, 1)
	otherAgg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 2.0).Strategy()) // different ε
	if err != nil {
		t.Fatal(err)
	}
	f, err := ldp.NewFleet(otherAgg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	err = f.Register(context.Background(), shards[0].hs.URL)
	if err == nil || !strings.Contains(err.Error(), "mechanism") {
		t.Fatalf("registering a mismatched shard = %v, want a mechanism refusal", err)
	}
	if got := len(f.Members()); got != 0 {
		t.Fatalf("mismatched shard joined the membership (%d members)", got)
	}

	// The refusal is decided by what the handshake found, not by what the
	// error text says: a shard that is merely unavailable — here a 503 whose
	// body happens to quote the mismatch wording — is weather, and is
	// admitted gated-out like any other unreachable shard.
	busy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, "restarting after: remote collector aggregates under a different mechanism configuration", http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	ok, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Register(context.Background(), busy.URL); err != nil {
		t.Fatalf("registering an unavailable shard = %v, want it admitted gated-out", err)
	}
	if ms := ok.Members(); len(ms) != 1 || ms[0].Ready || ms[0].Verified {
		t.Fatalf("unavailable shard state = %+v, want admitted, not ready, unverified", ms)
	}
}

// A shard that is down at registration is admitted gated-out — it may be
// booting or recovering — and joins (with the identity handshake completed)
// once a probe finds it up.
func TestFleetAdmitsUnreachableShardAndRecovers(t *testing.T) {
	agg, w, shards := fleetFixture(t, 8, 1)
	sh := shards[0]
	sh.down.Store(true)

	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Register(ctx, sh.hs.URL); err != nil {
		t.Fatalf("registering an unreachable shard should admit it not-ready, got %v", err)
	}
	ms := f.Members()
	if len(ms) != 1 || ms[0].Ready || ms[0].Verified {
		t.Fatalf("unreachable shard state = %+v, want admitted, not ready, unverified", ms)
	}
	fwd := &keyedForwarder{f: f, name: "recovers"}
	if err := fwd.forward(ctx, []ldp.Report{{Index: 1}}); !errors.Is(err, ldp.ErrNoReadyShards) {
		t.Fatalf("ingest with no ready shard = %v, want ErrNoReadyShards", err)
	}

	sh.down.Store(false)
	ms = f.Probe(ctx)
	if !ms[0].Ready || !ms[0].Verified {
		t.Fatalf("after recovery probe, state = %+v, want ready and verified", ms[0])
	}
	// The refused batch was never bound, so the same key now finds the shard.
	if err := fwd.settle(ctx); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if got := sh.col.Count(); got != 1 {
		t.Fatalf("shard holds %v reports after the retried forward, want 1", got)
	}
}

// Health gating: a shard that declares itself not-ready (recovering,
// draining) is gated out of routing on the next probe immediately; an
// unreachable shard only after UnhealthyAfter consecutive probe failures —
// one blip does not evict it.
func TestFleetHealthGating(t *testing.T) {
	agg, w, shards := fleetFixture(t, 8, 2)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)),
		ldp.WithFleetUnhealthyAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	// Self-declared not-ready: gated on the first probe.
	shards[0].svc.SetReady(false, "recovering")
	ms := f.Probe(ctx)
	if ms[0].Ready || ms[0].Reason != "recovering" {
		t.Fatalf("recovering shard state = %+v, want gated with its own reason", ms[0])
	}
	if got := f.ReadyCount(); got != 1 {
		t.Fatalf("ReadyCount = %d with one recovering shard, want 1", got)
	}

	// Recovery: re-admitted on the next probe.
	shards[0].svc.SetReady(true, "")
	if ms = f.Probe(ctx); !ms[0].Ready {
		t.Fatalf("recovered shard still gated: %+v", ms[0])
	}

	// Unreachable: survives one failed probe, gated after the second.
	shards[1].down.Store(true)
	if ms = f.Probe(ctx); !ms[1].Ready {
		t.Fatalf("shard gated after a single probe blip: %+v", ms[1])
	}
	if ms = f.Probe(ctx); ms[1].Ready {
		t.Fatalf("shard still routable after %d consecutive probe failures", 2)
	}
	// And one good probe resets the failure streak.
	shards[1].down.Store(false)
	if ms = f.Probe(ctx); !ms[1].Ready {
		t.Fatalf("shard not re-admitted after recovery: %+v", ms[1])
	}
}

// Degraded merge: with one shard unreachable, Snap still answers — the dead
// shard contributes its last-good snapshot, the coverage says "3/3 shards
// (1 stale)", and the merged count is exact up to that shard's staleness.
// With the stale fallback disabled the shard is an honest gap instead:
// "2/3 shards (1 missing)" carrying its last-good epoch and count.
func TestFleetDegradedMerge(t *testing.T) {
	const domain = 16
	agg, w, shards := fleetFixture(t, domain, 3)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	// Seed every shard with distinct mass and take a complete snapshot so the
	// fleet holds a last-good state per shard.
	fwd := &keyedForwarder{f: f, name: "degraded"}
	for i := 0; i < 30; i++ {
		if err := fwd.forward(ctx, []ldp.Report{{Index: i % domain}, {Index: (i + 1) % domain}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, cov, err := f.Snap(ctx); err != nil || !cov.Complete() {
		t.Fatalf("baseline snap = %v (%s), want complete", err, cov)
	}

	// Kill shard 2 and merge again: stale fallback keeps full coverage.
	shards[2].down.Store(true)
	snap, cov, err := f.Snap(ctx)
	if err != nil {
		t.Fatalf("degraded snap: %v", err)
	}
	if cov.Merged() != 3 || cov.Stale != 1 || cov.Complete() {
		t.Fatalf("degraded coverage = %+v (%s), want 3 merged with 1 stale", cov, cov)
	}
	if cov.String() != "3/3 shards (1 stale)" {
		t.Fatalf("coverage string = %q", cov.String())
	}
	sc := cov.Shards[2]
	if sc.Status != ldp.CoverageStale || sc.Epoch == 0 || sc.Count != shards[2].col.Count() || sc.Err == "" {
		t.Fatalf("stale shard annotation = %+v, want last-good epoch/count and the failure", sc)
	}
	if snap.Count() != 60 {
		t.Fatalf("degraded merge count %v, want 60 (nothing absorbed since last good)", snap.Count())
	}

	// Same outage, stale fallback off: partial coverage, honest gap.
	strict, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)),
		ldp.WithFleetStaleFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 2 is down; register admits it not-ready, and the merge has no
	// last-good state for it.
	registerAll(t, ctx, strict, shards)
	snap, cov, err = strict.Snap(ctx)
	if err != nil {
		t.Fatalf("partial snap: %v", err)
	}
	if cov.Merged() != 2 || cov.Stale != 0 || cov.Total != 3 {
		t.Fatalf("partial coverage = %+v (%s), want 2/3 fresh", cov, cov)
	}
	if cov.String() != "2/3 shards (1 missing)" {
		t.Fatalf("coverage string = %q", cov.String())
	}
	if got := cov.Shards[2].Status; got != ldp.CoverageMissing {
		t.Fatalf("down shard status = %v, want missing", got)
	}
	if snap.Count() != 40 {
		t.Fatalf("partial merge count %v, want 40 (two shards of 20)", snap.Count())
	}
}

// Strict quorum: a merge covering fewer shards than the quorum refuses with
// a typed error carrying the coverage, instead of serving a partial answer.
func TestFleetQuorumRefusal(t *testing.T) {
	agg, w, shards := fleetFixture(t, 8, 3)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)),
		ldp.WithFleetStaleFallback(false), ldp.WithFleetQuorum(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	if _, cov, err := f.Snap(ctx); err != nil || cov.Merged() != 3 {
		t.Fatalf("full-strength snap = %v (%s)", err, cov)
	}

	shards[1].down.Store(true)
	_, _, err = f.Snap(ctx)
	var qe *ldp.QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("below-quorum snap error = %v, want *QuorumError", err)
	}
	if qe.Merged != 2 || qe.Quorum != 3 || qe.Coverage.Total != 3 {
		t.Fatalf("quorum error detail = %+v", qe)
	}
}

// Failover keeps exactly-once: a batch whose forward fails stays bound to the
// shard it was keyed to (its idempotency key must replay on the SAME
// backend), later batches route around the outage, and once the shard heals
// a same-key retry delivers the stranded batch exactly once.
func TestFleetFailoverPreservesExactlyOnce(t *testing.T) {
	const domain, total = 16, 90
	agg, w, shards := fleetFixture(t, domain, 3)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)),
		ldp.WithFleetUnhealthyAfter(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	reports := make([]ldp.Report, total)
	for i := range reports {
		reports[i] = ldp.Report{Index: i % domain}
	}

	// First third flows normally.
	fwd := &keyedForwarder{f: f, name: "failover"}
	for i := 0; i < 30; i += 5 {
		if err := fwd.forward(ctx, reports[i:i+5]); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 dies mid-stream: the batch that was routed to it fails after
	// retries and stays bound there; a probe gates it out and the rest of
	// the stream routes across the survivors.
	shards[0].down.Store(true)
	var failedAt int
	for i := 30; i < 60; i += 5 {
		if err := fwd.forward(ctx, reports[i:i+5]); err != nil {
			failedAt++
		}
	}
	if failedAt == 0 {
		t.Fatal("no batch ever hit the dead shard; routing never rotated onto it")
	}
	f.Probe(ctx)
	if got := f.ReadyCount(); got != 2 {
		t.Fatalf("ReadyCount = %d after gating the dead shard, want 2", got)
	}
	for i := 60; i < total; i += 5 {
		if err := fwd.forward(ctx, reports[i:i+5]); err != nil {
			t.Fatalf("ingest after gating still failed: %v", err)
		}
	}
	// A retry with the shard still down reports the failure and the batches
	// stay pending; nothing is lost and nothing re-routes to a different
	// backend — the survivors hold exactly what they held before the retry.
	survivors := shards[1].col.Count() + shards[2].col.Count()
	if err := fwd.settle(ctx); err == nil {
		t.Fatal("retry with a dead shard holding bound batches returned nil")
	}
	if got := shards[1].col.Count() + shards[2].col.Count(); got != survivors {
		t.Fatalf("survivors hold %v reports after the failed retry, want %v — a bound key re-routed", got, survivors)
	}

	// Heal, re-admit, and deliver the stranded batches under their keys.
	shards[0].down.Store(false)
	f.Probe(ctx)
	if err := fwd.settle(ctx); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}

	snap, cov, err := f.Snap(ctx)
	if err != nil || !cov.Complete() {
		t.Fatalf("final snap = %v (%s), want complete", err, cov)
	}
	if snap.Count() != total {
		t.Fatalf("final count %v, want exactly %v", snap.Count(), total)
	}
	var mass float64
	for _, v := range snap.State() {
		mass += v
	}
	if mass != total {
		t.Fatalf("final mass %v, want %v (loss or duplication across failover)", mass, total)
	}
}

// The breaker degrades a flapping shard to "stale + annotation" without even
// dialing it: after FailureThreshold consecutive snapshot failures the
// breaker opens, subsequent merges serve its last-good state marked stale,
// and after the cooldown a half-open probe re-admits it on success.
func TestFleetBreakerDegradesFlappingShard(t *testing.T) {
	agg, w, shards := fleetFixture(t, 8, 2)
	now := time.Unix(0, 0)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)),
		ldp.WithFleetBreakerPolicy(ldp.BreakerPolicy{
			FailureThreshold: 2,
			Cooldown:         time.Minute,
			Now:              func() time.Time { return now },
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	fwd := &keyedForwarder{f: f, name: "breaker"}
	for i := 0; i < 8; i++ {
		if err := fwd.forward(ctx, []ldp.Report{{Index: i % 8}, {Index: (i + 1) % 8}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, cov, err := f.Snap(ctx); err != nil || !cov.Complete() {
		t.Fatalf("baseline snap = %v (%s)", err, cov)
	}

	// Two failed merges trip the breaker on shard 1.
	shards[1].down.Store(true)
	f.Snap(ctx)
	f.Snap(ctx)
	if ms := f.Members(); ms[1].Breaker != "open" {
		t.Fatalf("breaker = %q after %d failures, want open", ms[1].Breaker, 2)
	}
	// While open, merges still answer (stale) without touching the shard.
	if _, cov, err := f.Snap(ctx); err != nil || cov.Stale != 1 {
		t.Fatalf("open-breaker snap = %v (%s), want stale fallback", err, cov)
	}

	// Cooldown passes, the shard heals: the half-open probe closes it.
	shards[1].down.Store(false)
	now = now.Add(2 * time.Minute)
	if _, cov, err := f.Snap(ctx); err != nil || !cov.Complete() {
		t.Fatalf("post-recovery snap = %v (%s), want fresh again", err, cov)
	}
	if ms := f.Members(); ms[1].Breaker != "closed" {
		t.Fatalf("breaker = %q after successful probe, want closed", ms[1].Breaker)
	}
}

// Deregistration is membership, not health: the shard leaves the rotation
// and the coverage denominator immediately.
func TestFleetDeregister(t *testing.T) {
	agg, w, shards := fleetFixture(t, 8, 2)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	if !f.Deregister(shards[0].hs.URL) {
		t.Fatal("deregistering a member returned false")
	}
	if f.Deregister(shards[0].hs.URL) {
		t.Fatal("deregistering a non-member returned true")
	}
	_, cov, err := f.Snap(ctx)
	if err != nil || cov.Total != 1 || !cov.Complete() {
		t.Fatalf("post-deregister snap = %v (%s), want 1/1", err, cov)
	}
}
