package ldp

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/transport"
)

// DefaultRemoteBatch is the report count a RemoteCollector accumulates before
// shipping one frame. At the transport's ~10-byte-per-report framing this
// keeps frames around tens of kilobytes — large enough to amortize the HTTP
// round trip, small enough to bound client memory and per-frame loss.
const DefaultRemoteBatch = 4096

// RemoteCollector is the client half of a networked deployment: it speaks to
// a remote collector (cmd/ldpserve) over the transport's HTTP binding while
// presenting the same ingestion/read API as the in-process Collector, so the
// same driver code runs against either. Reports are buffered, carved into
// batches, and shipped in framed requests; each batch is applied atomically
// by the server and stamped with a random idempotency key, so a retry after
// a lost HTTP response cannot be absorbed twice. Snap fetches one consistent
// snapshot; estimates are reconstructed locally through the mechanism's
// Aggregator — the server never needs the workload, and (because
// accumulators are integer-valued and merging is exact) the estimates are
// bit-identical to an in-process pipeline fed the same reports.
//
// A RemoteCollector is safe for concurrent use; goroutines sharing one
// instance contend only on the report buffer, and distinct batches ship in
// parallel.
type RemoteCollector struct {
	client *transport.Client
	agg    Aggregator
	info   MechanismInfo
	batch  int
	policy RetryPolicy

	// mu guards the buffers and is never held across a request. A batch is
	// popped from unsent under mu before it ships, so concurrent shippers
	// send distinct batches in parallel while each key still has at most one
	// request in flight (its batch is owned by exactly one shipper).
	mu     sync.Mutex
	buf    []Report     // ingested, not yet carved into a keyed batch
	unsent []keyedBatch // carved batches awaiting a shipper

	// lastEpoch/lastCount remember the highest snapshot epoch this client has
	// observed (under mu): a later Snap returning a smaller epoch is the
	// signature of a lossy server restart and surfaces as EpochRegressionError.
	lastEpoch uint64
	lastCount float64
}

// EpochRegressionError reports that the server's snapshot epoch moved
// backwards between two Snap calls on the same RemoteCollector. A collector's
// epoch is monotonic for its lifetime and durable recovery re-seeds it past
// every previously served value, so a regression means the server restarted
// and lost state (or was swapped for a different instance): estimates derived
// from the regressed snapshot would silently undercount every report absorbed
// before the restart. Detect it with errors.As.
type EpochRegressionError struct {
	// Prev and PrevCount are the last snapshot this client accepted.
	Prev      uint64
	PrevCount float64
	// Observed and ObservedCount are the regressed snapshot the server served.
	Observed      uint64
	ObservedCount float64
}

func (e *EpochRegressionError) Error() string {
	return fmt.Sprintf("snapshot epoch regressed from %d (count %g) to %d (count %g): the server appears to have restarted without recovering its state",
		e.Prev, e.PrevCount, e.Observed, e.ObservedCount)
}

// keyedBatch is one carved batch with the idempotency key that makes its
// retries safe: the key stays with the batch until the server acknowledges
// it, so a re-ship after a lost response replays the recorded answer instead
// of double-absorbing.
type keyedBatch struct {
	key     string
	reports []Report
}

// newIdemKey returns a fresh 16-byte random idempotency key, hex-encoded.
func newIdemKey() string {
	var b [16]byte
	// crypto/rand.Read cannot fail on the supported platforms (it panics
	// internally instead of returning), so the error is impossible here.
	_, _ = cryptorand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// RetryPolicy is the failure discipline a networked client applies per
// request: total attempts, jittered exponential backoff between them, and a
// per-attempt timeout. The Rand and Sleep fields are injectable so a test
// can pin the whole schedule deterministic; see DefaultRemoteRetryPolicy.
type RetryPolicy = retry.Policy

// DefaultRemoteRetryPolicy is the retry discipline a RemoteCollector ships
// and snapshots under when none is configured: four attempts backing off
// 100ms → 200ms → 400ms with ±50% jitter (capped at 2s), each attempt
// individually bounded at 30s. Idempotency keys make the retries safe; the
// jitter keeps a fleet of clients that failed together from retrying
// together.
func DefaultRemoteRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       4,
		InitialBackoff:    100 * time.Millisecond,
		MaxBackoff:        2 * time.Second,
		Jitter:            0.5,
		PerAttemptTimeout: 30 * time.Second,
	}
}

// classifyTransportErr marks definitively answered requests non-retryable: a
// non-temporary status (the 4xx family) is a fact a retry cannot change,
// while network failures, timeouts, and 5xx/429 responses are weather.
func classifyTransportErr(err error) error {
	if definitive(err) {
		return retry.Definitive(err)
	}
	return err
}

// definitive reports whether err carries a server's definitive answer — a
// non-temporary *StatusError: the server is alive and said no.
func definitive(err error) bool {
	var se *transport.StatusError
	return errors.As(err, &se) && !se.Temporary()
}

// RemoteOption configures a RemoteCollector.
type RemoteOption func(*RemoteCollector)

// WithRemoteBatch sets the report count per shipped frame (default
// DefaultRemoteBatch, capped at the transport's per-frame report limit).
func WithRemoteBatch(n int) RemoteOption {
	return func(rc *RemoteCollector) {
		if n > 0 {
			rc.batch = n
		}
	}
}

// WithRemoteHTTPClient substitutes the http.Client used for every request
// (timeouts, transport reuse, test doubles).
func WithRemoteHTTPClient(hc *http.Client) RemoteOption {
	return func(rc *RemoteCollector) {
		if hc != nil {
			rc.client.SetHTTPClient(hc)
		}
	}
}

// WithRemoteRetryPolicy replaces the retry discipline (default
// DefaultRemoteRetryPolicy) applied to shipped batches and snapshot fetches.
// Tests pin MaxAttempts/backoff/Rand/Sleep for a deterministic schedule; a
// deployment that wants the old fail-fast behavior sets MaxAttempts to 1.
func WithRemoteRetryPolicy(p RetryPolicy) RemoteOption {
	return func(rc *RemoteCollector) {
		rc.policy = p
	}
}

// NewRemoteCollector prepares a client for the collector server at baseURL
// ("host:port" or a full http:// URL). The aggregator must match the
// mechanism the server was started with — Verify (or a /healthz check)
// confirms it.
func NewRemoteCollector(baseURL string, agg Aggregator, opts ...RemoteOption) (*RemoteCollector, error) {
	if agg == nil {
		return nil, errors.New("ldp: nil aggregator")
	}
	tc, err := transport.NewClient(baseURL, nil)
	if err != nil {
		return nil, fmt.Errorf("ldp: %w", err)
	}
	rc := &RemoteCollector{client: tc, agg: agg, info: MechanismInfoOf(agg),
		batch: DefaultRemoteBatch, policy: DefaultRemoteRetryPolicy()}
	for _, o := range opts {
		o(rc)
	}
	if rc.batch > transport.MaxBatchReports {
		rc.batch = transport.MaxBatchReports
	}
	return rc, nil
}

// Verify asks the server for its identity and refuses a mechanism mismatch
// through the same door as every snapshot (admit): reports randomized under
// one configuration must not be aggregated under another. /healthz states no
// accumulator, so the width it is held to is its declared domain.
func (rc *RemoteCollector) Verify(ctx context.Context) error {
	h, err := rc.client.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("ldp: remote collector unreachable: %w", err)
	}
	_, err = admit("remote collector", rc.info, rc.agg.Domain(), h.Info, h.Domain)
	return err
}

// Ingest buffers one client report, shipping a frame when the batch size is
// reached. Call Flush before reading estimates.
func (rc *RemoteCollector) Ingest(ctx context.Context, r Report) error {
	return rc.IngestBatch(ctx, []Report{r})
}

// IngestBatch buffers a batch of reports, shipping full keyed batches as they
// accumulate. Validation happens server-side per frame, all-or-nothing. On a
// failed ship nothing is lost: a batch the server definitively rejected keeps
// only its unaccepted suffix, and a batch whose response was lost is retried
// under the same idempotency key — so a retried IngestBatch or Flush delivers
// every report exactly once.
func (rc *RemoteCollector) IngestBatch(ctx context.Context, reports []Report) error {
	rc.mu.Lock()
	rc.buf = append(rc.buf, reports...)
	rc.mu.Unlock()
	return rc.ship(ctx, false)
}

// Flush ships every buffered report. The pipeline is complete once Flush
// returns nil — a subsequent Snap sees all ingested reports. A batch a
// concurrent IngestBatch has already popped for shipping is that call's
// responsibility (it re-buffers on failure), so join ingestion goroutines
// before the final Flush, as with the in-process Collector.
func (rc *RemoteCollector) Flush(ctx context.Context) error {
	return rc.ship(ctx, true)
}

// carveLocked moves buffered reports into keyed batches: every full batch,
// plus (when all is set) the remainder. Caller holds mu. One compaction for
// all carved batches, so a large ingest stays linear in the buffered count.
func (rc *RemoteCollector) carveLocked(all bool) {
	off := 0
	for len(rc.buf)-off >= rc.batch {
		frame := make([]Report, rc.batch)
		copy(frame, rc.buf[off:])
		off += rc.batch
		rc.unsent = append(rc.unsent, keyedBatch{key: newIdemKey(), reports: frame})
	}
	if all && len(rc.buf) > off {
		frame := make([]Report, len(rc.buf)-off)
		copy(frame, rc.buf[off:])
		off = len(rc.buf)
		rc.unsent = append(rc.unsent, keyedBatch{key: newIdemKey(), reports: frame})
	}
	if off > 0 {
		rc.buf = rc.buf[:copy(rc.buf, rc.buf[off:])]
	}
}

// ship carves keyed batches and sends them until none remain or an error
// stops this shipper. Each iteration pops one batch under the lock, so
// concurrent callers ship distinct batches in parallel — many ingestion
// goroutines sharing one RemoteCollector keep their concurrent POSTs.
//
// Each batch is driven through the retry policy: transient failures (network
// errors, lost responses, 5xx) back off with jitter and try again under the
// SAME idempotency key, so a retry of a request whose response was lost
// replays the recorded answer instead of a second absorb. A definitive
// response (4xx) stops the retries immediately: the server applied exactly
// the accepted prefix, so the unaccepted suffix is re-queued under a fresh
// key (the old key has the old response recorded against it). Only when the
// policy is exhausted does the batch return to the front of the queue — key
// intact — for a later Flush to continue exactly where this one stopped.
func (rc *RemoteCollector) ship(ctx context.Context, all bool) error {
	for {
		rc.mu.Lock()
		rc.carveLocked(all)
		if len(rc.unsent) == 0 {
			rc.mu.Unlock()
			return nil
		}
		b := rc.unsent[0]
		rc.unsent = rc.unsent[1:]
		rc.mu.Unlock()

		accepted := 0
		err := retry.Do(ctx, rc.policy, func(actx context.Context) error {
			a, perr := rc.client.PostReportsKeyed(actx, b.reports, b.key)
			accepted = a
			return classifyTransportErr(perr)
		})
		if err == nil {
			// Acknowledged in full (a 200 means every frame of the request
			// was absorbed — or already had been, under this key).
			continue
		}
		var se *transport.StatusError
		if errors.As(err, &se) && !se.Temporary() {
			// Definitive response: the server applied exactly the accepted
			// prefix and rejected the rest. Keep the suffix under a fresh key
			// (the old key now has this rejection recorded against it).
			if accepted < 0 || accepted > len(b.reports) {
				accepted = 0 // trust no hostile or nonsensical count
			}
			if accepted >= len(b.reports) {
				return fmt.Errorf("ldp: ship reports: %w", err)
			}
			b = keyedBatch{key: newIdemKey(), reports: b.reports[accepted:]}
		}
		// Return the unacknowledged batch to the front of the queue — with
		// its key intact when no definitive answer arrived (the response may
		// have been lost after an absorb), so the next retry stays idempotent
		// server-side.
		rc.mu.Lock()
		rc.unsent = append([]keyedBatch{b}, rc.unsent...)
		rc.mu.Unlock()
		return fmt.Errorf("ldp: ship reports: %w", err)
	}
}

// Health is a collector server's /healthz response: liveness, a consistent
// (count, snapshot epoch) pair, and the declared mechanism identity — enough
// to spot a stale or mismatched shard without pulling a full snapshot.
type Health = transport.Health

// Readyz asks the server's readiness probe: (true, "") for a shard that
// should receive traffic, (false, reason) for one that is alive but gated
// out (draining, recovering). Servers predating /readyz read as
// ready-while-alive. The error is non-nil only when the shard could not be
// reached at all.
func (rc *RemoteCollector) Readyz(ctx context.Context) (bool, string, error) {
	return rc.client.Readyz(ctx)
}

// Healthz fetches the server's health report.
func (rc *RemoteCollector) Healthz(ctx context.Context) (Health, error) {
	h, err := rc.client.Healthz(ctx)
	if err != nil {
		return Health{}, fmt.Errorf("ldp: %w", err)
	}
	return h, nil
}

// Count returns the number of reports the server has absorbed (buffered,
// unshipped reports are not included).
func (rc *RemoteCollector) Count(ctx context.Context) (float64, error) {
	h, err := rc.Healthz(ctx)
	if err != nil {
		return 0, err
	}
	return h.Count, nil
}

// Snap fetches one consistent Snapshot from the server: merged accumulator,
// report count, snapshot epoch, and the mechanism identity the server
// declared (cross-checked against the local mechanism — digest included —
// before the snapshot is accepted). Against an old server speaking v1 frames
// the identity gaps are filled from the local mechanism.
func (rc *RemoteCollector) Snap(ctx context.Context) (Snapshot, error) {
	snap, err := rc.fetch(ctx, "fetch snapshot", rc.client.Snap)
	if err != nil {
		return Snapshot{}, err
	}
	// The epoch must never move backwards across Snap calls: a collector's
	// epoch is monotonic and survives a durable restart, so a regression is
	// exactly the symptom of a lossy restart — reject the snapshot instead of
	// letting a consistent-looking undercount through. (A v1 server reports
	// epoch 0 always, which never regresses from itself.)
	rc.mu.Lock()
	if snap.epoch < rc.lastEpoch {
		prev, prevCount := rc.lastEpoch, rc.lastCount
		rc.mu.Unlock()
		return Snapshot{}, fmt.Errorf("ldp: %w", &EpochRegressionError{
			Prev: prev, PrevCount: prevCount, Observed: snap.epoch, ObservedCount: snap.count,
		})
	}
	rc.lastEpoch, rc.lastCount = snap.epoch, snap.count
	rc.mu.Unlock()
	return snap, nil
}

// SnapAt fetches the historical snapshot the server's epoch history retains
// for exactly the given epoch — bit-identical to what Snap served when that
// epoch was current. An epoch the server's retention ladder has coarsened
// away answers a definitive 404 (a *StatusError whose message names the
// retained range). A server that answers an exact request with a LOWER epoch
// has lost the retained history it advertised — the same lossy-restart
// signature Snap guards against — and is rejected with EpochRegressionError
// (Prev is the requested epoch). Historical reads never advance the
// regression high-water mark Snap maintains: reading the past must not make
// the present look regressed, or vice versa.
func (rc *RemoteCollector) SnapAt(ctx context.Context, epoch uint64) (Snapshot, error) {
	return rc.snapAt(ctx, epoch, false)
}

// SnapAtNearest is SnapAt with floor semantics: the server serves the newest
// retained epoch at or below the requested one (fleet members checkpoint on
// their own schedules, so an exact epoch rarely exists fleet-wide). The
// returned snapshot's epoch says what was actually served; a served epoch
// above the requested one is rejected.
func (rc *RemoteCollector) SnapAtNearest(ctx context.Context, epoch uint64) (Snapshot, error) {
	return rc.snapAt(ctx, epoch, true)
}

func (rc *RemoteCollector) snapAt(ctx context.Context, epoch uint64, nearest bool) (Snapshot, error) {
	snap, err := rc.fetch(ctx, fmt.Sprintf("fetch snapshot at epoch %d", epoch), func(actx context.Context) (transport.Snapshot, error) {
		return rc.client.SnapAt(actx, epoch, nearest)
	})
	if err != nil {
		return Snapshot{}, err
	}
	if !nearest && snap.epoch != epoch {
		if snap.epoch < epoch {
			return Snapshot{}, fmt.Errorf("ldp: %w", &EpochRegressionError{
				Prev: epoch, Observed: snap.epoch, ObservedCount: snap.count,
			})
		}
		return Snapshot{}, fmt.Errorf("ldp: requested epoch %d, server served %d", epoch, snap.epoch)
	}
	if nearest && snap.epoch > epoch {
		return Snapshot{}, fmt.Errorf("ldp: requested epoch at or below %d, server served %d", epoch, snap.epoch)
	}
	// Deliberately no rc.lastEpoch update: the high-water mark tracks the
	// live timeline only.
	return snap, nil
}

// fetch is the one fetch-and-verify behind Snap and SnapAt: get runs under
// the retry policy (a truncated or garbled frame reads as a decode error, not
// a status: it is transient, the next fetch re-reads, so it retries too), and
// the answer is accepted only through admit. what names the read in the
// error.
func (rc *RemoteCollector) fetch(ctx context.Context, what string, get func(context.Context) (transport.Snapshot, error)) (Snapshot, error) {
	var ts transport.Snapshot
	err := retry.Do(ctx, rc.policy, func(actx context.Context) error {
		s, serr := get(actx)
		if serr == nil {
			ts = s
		}
		return classifyTransportErr(serr)
	})
	if err != nil {
		return Snapshot{}, fmt.Errorf("ldp: %s: %w", what, err)
	}
	return admitSnapshot("remote snapshot", rc.info, rc.agg.StateLen(), ts)
}

// collectorBackend adapts a Collector to the transport's Backend contract by
// unpacking its Snapshot value. The pool backs the /query endpoint: cached
// estimators and workload digests survive across requests.
type collectorBackend struct {
	c    *Collector
	pool *EstimatorPool
}

// IngestBatch hands the request's idempotency key down with the batch ("" is
// unkeyed, to the transport and the Collector alike): a durable collector
// logs it, closing the crash-restart replay hole.
func (b collectorBackend) IngestBatch(reports []Report, key string) error {
	return b.c.IngestBatchKeyed(reports, key)
}

func (b collectorBackend) SnapshotEpoch() ([]float64, float64, uint64) {
	return b.c.snapshot()
}

func (b collectorBackend) CountEpoch() (float64, uint64) {
	return b.c.countEpoch()
}

// Durability feeds /healthz the recovery status and WAL lag of a durable
// collector; a memory-only one answers ok == false.
func (b collectorBackend) Durability() (transport.DurabilityHealth, bool) {
	return b.c.Durability()
}

// SnapshotAt serves GET /snapshot?epoch= from retained history; an in-memory
// collector reads as "nothing retained" (404).
func (b collectorBackend) SnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	return b.c.historySnapshotAt(epoch, nearest)
}

// CollectorService is a served collector endpoint plus its lifecycle
// controls: the HTTP handler cmd/ldpserve binds, a Drain switch that flips
// ingest to 503 + not-ready while reads stay alive, and a SetReady gate for
// transient not-ready phases (recovery, rebalancing) a router's health
// probes should see.
type CollectorService struct {
	ts *transport.Server
}

// ServiceOption configures a served tier's observability (CollectorService
// and FleetServer alike).
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	logger *slog.Logger
	slow   time.Duration
}

// WithServiceLogger sets the structured logger request lines (and their
// Ldp-Request-Id trace fields) are emitted through; nil keeps slog.Default.
func WithServiceLogger(l *slog.Logger) ServiceOption {
	return func(c *serviceConfig) { c.logger = l }
}

// WithSlowRequestThreshold sets the latency at or above which a request is
// logged at Warn instead of Debug (<= 0 keeps the 1s default).
func WithSlowRequestThreshold(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.slow = d }
}

// NewCollectorService binds an in-process Collector to the HTTP transport
// and returns the service handle. info describes the mechanism for /healthz
// and the snapshot frames; pass MechanismInfoOf(agg) unless the deployment
// has a reason to declare less. An info that conflicts with the collector's
// own identity is refused with a mechanism mismatch.
//
// The service is fully instrumented: GET /metrics serves per-endpoint
// request counts and latency histograms, the collector's ingest counters
// and report/epoch gauges, the estimator pool's cache stats, the WAL and
// checkpoint families for a durable collector, and the ldp_build_info
// identity gauge. Every request carries an Ldp-Request-Id through the
// structured request log.
func NewCollectorService(c *Collector, info transport.Info, opts ...ServiceOption) (*CollectorService, error) {
	if c == nil {
		return nil, errors.New("ldp: nil collector")
	}
	// The identity the service declares must not conflict with the one the
	// collector aggregates under. An undeclared field passes, the domain
	// (which admit reads as the width) included.
	domain := info.Domain
	if domain == 0 {
		domain = c.agg.Domain()
	}
	if _, err := admit("service identity", c.info, c.agg.Domain(), info, domain); err != nil {
		return nil, err
	}
	var cfg serviceConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := obs.NewRegistry()
	pool := NewEstimatorPool()
	s, err := transport.NewServer(collectorBackend{c: c, pool: pool}, info,
		transport.WithMetrics(reg),
		transport.WithLogger(cfg.logger),
		transport.WithSlowRequest(cfg.slow),
		transport.WithVersion(BuildInfo().Version))
	if err != nil {
		return nil, fmt.Errorf("ldp: %w", err)
	}
	registerBuildInfo(reg)
	c.enableMetrics(reg)
	c.armDurabilityMetrics(reg)
	pool.enableMetrics(reg)
	// A durable collector's recovery proves which keyed batches were absorbed
	// before the restart; seeding them lets a client retry of a lost response
	// replay instead of double-absorbing.
	if keys := c.recoveredIdempotencyKeys(); len(keys) > 0 {
		s.SeedIdempotency(keys)
	}
	return &CollectorService{ts: s}, nil
}

// Metrics returns the service's registry — what GET /metrics serves — so an
// embedder (or a test) can read series or add families of its own.
func (s *CollectorService) Metrics() *obs.Registry { return s.ts.Metrics() }

// Handler returns the HTTP handler serving /reports, /snapshot, /healthz,
// and /readyz.
func (s *CollectorService) Handler() http.Handler { return s.ts.Handler() }

// Drain marks the service draining: POST /reports answers a retryable 503,
// /readyz flips to 503 so a router gates the shard out of membership, and
// /healthz plus /snapshot keep serving so the fan-in tier can pull the final
// state. Call before http.Server.Shutdown; Drain is one-way.
func (s *CollectorService) Drain() { s.ts.Drain() }

// SetReady declares a transient readiness state (false gates the shard out
// of router membership with the given reason while it stays alive). A
// draining service never reports ready again.
func (s *CollectorService) SetReady(ready bool, reason string) { s.ts.SetReady(ready, reason) }
