package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// Backend is what a transport server needs from a collector. It is one
// interface: a capability a particular collector lacks (durability, retained
// history) is answered through the method's return values — ok == false, an
// *EpochNotRetainedError — not by leaving the method out. The root package's
// sharded Collector satisfies it through an adapter that unpacks its Snapshot
// value.
type Backend interface {
	// IngestBatch records a batch of reports, validating the whole batch
	// before any state changes. key is the idempotency key the request
	// declared ("" for an unkeyed request): a backend that persists batches
	// (a write-ahead log) logs it alongside, so a client retry arriving after
	// a crash-restart still absorbs exactly once — the recovered key seeds
	// the idempotency cache via SeedIdempotency.
	IngestBatch(reports []protocol.Report, key string) error
	// SnapshotEpoch returns the merged accumulator, the number of absorbed
	// reports, and the monotonic snapshot epoch — one consistent view: the
	// epoch advances exactly when the returned state differs from the
	// previously returned one.
	SnapshotEpoch() (state []float64, count float64, epoch uint64)
	// CountEpoch returns the same consistent (count, epoch) pair without
	// materializing the state — the cheap view /healthz polls.
	CountEpoch() (count float64, epoch uint64)
	// Durability reports the durable-ingest status /healthz includes; ok is
	// false for a purely in-memory collector.
	Durability() (health DurabilityHealth, ok bool)
	// SnapshotAt returns the snapshot retained for epoch, serving GET
	// /snapshot?epoch= from the checkpoint ladder without replay. With
	// nearest false the epoch must match a retained checkpoint exactly; with
	// nearest true the newest retained epoch ≤ the requested one is served. A
	// miss — including a collector that retains no history at all — returns
	// *EpochNotRetainedError.
	SnapshotAt(epoch uint64, nearest bool) (Snapshot, error)
	// Query answers a workload query over the current snapshot: it resolves
	// the request's workload, reconstructs answers from a consistent
	// snapshot, and streams the result as query-result frames through a
	// QueryResultWriter built on w. An error returned before the first frame
	// is written maps to an HTTP status (StatusError chooses the code;
	// anything else answers 422); an error after bytes are on the wire aborts
	// the connection so the client sees a truncated stream rather than a
	// silently short result.
	Query(q QueryRequest, w io.Writer) error
}

// DurabilityHealth is the durable-ingest status a backend exposes through
// /healthz: what recovery restored at startup and how far the WAL has run
// ahead of the last checkpoint (the replay cost of a crash right now).
type DurabilityHealth struct {
	// Recovered is true when startup restored prior state (checkpoint and/or
	// WAL records) rather than starting empty.
	Recovered bool `json:"recovered"`
	// RecoveredReports counts the reports restored at startup.
	RecoveredReports int64 `json:"recovered_reports"`
	// ReplayedRecords counts the WAL records replayed on top of the
	// checkpoint at startup.
	ReplayedRecords int64 `json:"replayed_records"`
	// DroppedTailBytes counts torn trailing WAL bytes discarded at startup —
	// the unacknowledged remains of the previous crash.
	DroppedTailBytes int64 `json:"dropped_tail_bytes"`
	// CheckpointSeq is the newest durable checkpoint's sequence number.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// WALRecordLag and WALByteLag measure the WAL tail no checkpoint covers
	// yet — what a restart right now would have to replay.
	WALRecordLag int64 `json:"wal_record_lag"`
	WALByteLag   int64 `json:"wal_byte_lag"`
	// Fsync reports whether every group commit fsyncs before acknowledging.
	Fsync bool `json:"fsync"`
	// LastError carries the most recent background checkpoint failure, if
	// any — ingest continues on the WAL alone, but an operator should know.
	LastError string `json:"last_error,omitempty"`
}

// Info describes the mechanism a server fronts; /healthz and every v2
// snapshot frame report it so clients can verify they randomize through the
// configuration the collector aggregates under.
type Info struct {
	Mechanism string  `json:"mechanism"`
	Domain    int     `json:"domain"`
	Epsilon   float64 `json:"epsilon"`
	// Digest fingerprints the exact mechanism configuration when name,
	// domain, and ε cannot (strategy matrices: two different matrices share
	// all three). Empty for mechanisms fully determined by the fields above.
	Digest string `json:"digest,omitempty"`
}

// Health is the /healthz response body. Count and Epoch are one consistent
// snapshot view, so an operator (or ldpquery -servers) comparing two shards sees a
// stale or diverged one without pulling either full snapshot.
//
// /healthz is liveness: it answers 200 for as long as the process can serve
// reads at all, including while draining or otherwise not accepting ingest.
// Readiness — "should a router send this shard traffic" — is the separate
// Ready/Reason pair, also served standalone by GET /readyz (200/503), so a
// recovering or draining shard reports alive-but-not-ready and a fan-in tier
// gates it out of membership without declaring it dead.
type Health struct {
	Status string  `json:"status"`
	Count  float64 `json:"count"`
	Epoch  uint64  `json:"epoch"`
	// Version is the serving binary's build version (ldflags-stamped or the
	// module version); empty against servers predating it.
	Version string `json:"version,omitempty"`
	// Ready reports whether the shard is accepting ingest traffic; Reason
	// says why not (e.g. "draining") when false.
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	Info
	// Durability reports the backend's durable-ingest status; nil for a
	// purely in-memory collector.
	Durability *DurabilityHealth `json:"durability,omitempty"`
}

// IdempotencyKeyHeader is the request header a client stamps a POST /reports
// with to make it retry-safe: the server remembers the response of each
// recently absorbed key and replays it for a duplicate instead of absorbing
// the reports twice. Keys are opaque; clients use 16 random bytes, hex.
const IdempotencyKeyHeader = "Ldp-Idempotency-Key"

const (
	// IdempotencyHorizon is how many idempotency keys the system remembers,
	// stated once and kept in one table type, KeyHorizon, which forgets keys
	// in the order it first saw them: the shard's outcome cache here, the key
	// table a durable checkpoint carries, and the router's key→shard bindings
	// and their log each hold the newest IdempotencyHorizon keys by first
	// arrival. A retry neither refreshes a key nor changes which key goes
	// next, so a table a restart rebuilds from the log forgets the same key
	// the live one would have. At the default 4096-report batches it spans
	// ~17M reports of keyed history — far longer than any client retry loop
	// — while capping memory at a few hundred KiB. A retry arriving after its
	// key was evicted re-absorbs, with or without a restart in between.
	IdempotencyHorizon = 4096
	// MaxIdempotencyKeyLen bounds an accepted key so a hostile client cannot
	// park megabytes in the key table; a longer key is ignored — the request
	// is handled as unkeyed, by the shard and by a router in front of it
	// alike.
	MaxIdempotencyKeyLen = 64
)

// KeyHorizon is the one bounded idempotency-key table: it holds at most
// IdempotencyHorizon keys and evicts them in first-seen order. Get never
// reorders; Put of a present key replaces its value in place; Put of an
// absent key makes it the newest, evicting the oldest past the bound; Delete
// followed by Put makes a key the newest. All runs oldest first, so Putting
// its output into an empty table rebuilds this one. It is not safe for
// concurrent use: each owner keeps its own lock.
type KeyHorizon[V any] struct {
	limit int
	order []string // first-seen order, oldest first
	vals  map[string]V
}

// NewKeyHorizon returns an empty table bounded at IdempotencyHorizon.
func NewKeyHorizon[V any]() *KeyHorizon[V] { return newKeyHorizon[V](IdempotencyHorizon) }

func newKeyHorizon[V any](limit int) *KeyHorizon[V] {
	return &KeyHorizon[V]{limit: limit, vals: make(map[string]V)}
}

// Get returns key's value without reordering.
func (h *KeyHorizon[V]) Get(key string) (V, bool) {
	v, ok := h.vals[key]
	return v, ok
}

// Put sets key's value: in place when key is present, otherwise as the newest
// key, evicting the oldest when the table is full.
func (h *KeyHorizon[V]) Put(key string, v V) {
	if _, ok := h.vals[key]; !ok {
		if len(h.order) == h.limit {
			delete(h.vals, h.order[0])
			h.order = h.order[1:]
		}
		h.order = append(h.order, key)
	}
	h.vals[key] = v
}

// Delete removes key; a later Put makes it the newest.
func (h *KeyHorizon[V]) Delete(key string) {
	if _, ok := h.vals[key]; !ok {
		return
	}
	delete(h.vals, key)
	i := slices.Index(h.order, key)
	h.order = slices.Delete(h.order, i, i+1)
}

// Len returns the number of keys held.
func (h *KeyHorizon[V]) Len() int { return len(h.order) }

// All yields every key and its value, oldest first.
func (h *KeyHorizon[V]) All() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for _, k := range h.order {
			if !yield(k, h.vals[k]) {
				return
			}
		}
	}
}

// KeyCount is one idempotency key with the number of reports absorbed under
// it — the one named form of a key-table entry: what a checkpoint carries,
// what a durable store's log proves on recovery, and what SeedIdempotency
// takes.
type KeyCount struct {
	Key     string
	Reports int64
}

// idemOutcome is one idempotency key's entry: the recorded response once
// processing finished (done closed), or a claim that a request is being
// processed right now (done open). Claiming the key before the absorb — not
// recording after it — is what closes the in-flight window: a duplicate that
// arrives while the original is still absorbing waits for the outcome
// instead of absorbing a second time.
type idemOutcome struct {
	key    string
	done   chan struct{} // closed once status/resp are recorded
	status int
	resp   IngestResponse
}

// idemCache is the shard's mutex-guarded idempotency state: finished
// outcomes in a KeyHorizon, and the claims of requests being processed right
// now in a map of their own, which eviction never touches (an unbounded
// number would need that many concurrent distinct keys, which the server's
// connection limits bound long before this map matters). begin claims a key
// (or returns the existing claim or outcome), finish records the outcome,
// abort releases a claim whose request died without one.
type idemCache struct {
	mu       sync.Mutex
	finished *KeyHorizon[*idemOutcome]
	inflight map[string]*idemOutcome
}

func newIdemCache(limit int) *idemCache {
	return &idemCache{finished: newKeyHorizon[*idemOutcome](limit), inflight: make(map[string]*idemOutcome)}
}

// begin claims key for processing. owner == true means the caller must
// process the request and finish (or abort) the entry; owner == false means
// another request holds or held the key — wait on entry.done, then either
// replay the recorded outcome or, if the holder aborted, call begin again.
func (c *idemCache) begin(key string) (entry *idemOutcome, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.finished.Get(key); ok {
		return e, false
	}
	if e, ok := c.inflight[key]; ok {
		return e, false
	}
	entry = &idemOutcome{key: key, done: make(chan struct{})}
	c.inflight[key] = entry
	return entry, true
}

// seed records an already-finished outcome for key unless the key is
// present. Recovery uses it to pre-answer retries of batches the write-ahead
// log proves were absorbed before a restart.
func (c *idemCache) seed(key string, status int, resp IngestResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.finished.Get(key); ok {
		return
	}
	entry := &idemOutcome{key: key, done: make(chan struct{}), status: status, resp: resp}
	close(entry.done)
	c.finished.Put(key, entry)
}

// finish records the outcome on a claimed entry, moves it into the horizon
// as its newest key, and wakes every waiter. The entry keeps serving replays
// until evicted.
func (c *idemCache) finish(entry *idemOutcome, status int, resp IngestResponse) {
	c.mu.Lock()
	entry.status, entry.resp = status, resp
	delete(c.inflight, entry.key)
	c.finished.Put(entry.key, entry)
	c.mu.Unlock()
	close(entry.done)
}

// abort releases a claim that will never finish (the owning request died
// before producing a response): the key is removed so a retry reprocesses,
// and waiters are woken to claim it themselves.
func (c *idemCache) abort(entry *idemOutcome) {
	c.mu.Lock()
	delete(c.inflight, entry.key)
	entry.status = 0 // status 0 = no outcome; waiters re-begin
	c.mu.Unlock()
	close(entry.done)
}

// outcome reads a finished entry's recorded response (valid once done is
// closed; ok reports whether an outcome was recorded at all, false after an
// abort).
func (c *idemCache) outcome(entry *idemOutcome) (int, IngestResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return entry.status, entry.resp, entry.status != 0
}

// Server binds a collector backend to the HTTP transport:
//
//	POST /reports  — body is a stream of report-batch frames; each frame is
//	                 ingested atomically (all-or-nothing per frame). The JSON
//	                 response carries the number of reports accepted; a
//	                 malformed or rejected frame aborts the request with
//	                 status 400 after the preceding frames have been applied.
//	                 A backend error carrying a *StatusError answers with
//	                 that status; a Temporary one (a failed WAL append) is
//	                 retryable.
//	                 A request stamped with IdempotencyKeyHeader is absorbed
//	                 at most once: a duplicate replays the recorded response.
//	                 Only a request that applied reports records one — a
//	                 refusal or an empty body that applied none is processed
//	                 again on retry, so the keys remembered are the keys a
//	                 durable backend logs.
//	GET  /snapshot — one v2 snapshot frame: merged accumulator, count, epoch,
//	                 and the mechanism identity.
//	GET  /healthz  — JSON liveness, report count, snapshot epoch, and
//	                 mechanism identity.
type Server struct {
	backend Backend
	info    Info
	mux     *http.ServeMux
	idem    *idemCache

	// observability: the registry behind GET /metrics (always non-nil — a
	// server wired without WithMetrics gets a private one so the handlers
	// never branch), plus the pre-resolved counters the ingest path bumps.
	metrics       *obs.Registry
	version       string
	decodeRejects *obs.Counter
	idemReplays   *obs.Counter

	// maxRequestBytes bounds one POST /reports body before any frame decoding
	// runs (http.MaxBytesReader); past it the request fails 413 with the
	// accepted count so the client trims and re-sends the remainder.
	maxRequestBytes int64

	// readiness state: draining is one-way (a shard that started its drain
	// never comes back on this process), notReadyReason covers transient
	// not-ready phases an embedder declares (recovery, rebalancing).
	readyMu        sync.Mutex
	draining       bool
	notReadyReason string
}

// DefaultMaxRequestBytes bounds a POST /reports body. The per-frame caps
// bound each frame long before this, but a request may carry many frames —
// 64 MiB is ~8M unary-report frames, far past any sane client batch, while
// still refusing an unbounded streaming body before it parks in memory.
const DefaultMaxRequestBytes = 64 << 20

// ServerOption configures a Server's observability wiring.
type ServerOption func(*serverConfig)

type serverConfig struct {
	reg     *obs.Registry
	logger  *slog.Logger
	slow    time.Duration
	version string
}

// WithMetrics shares reg as the server's metric registry: the HTTP families,
// ingest counters, and GET /metrics all land on it, so an embedder can add
// its own families (WAL gauges, pool stats) to the same exposition.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.reg = reg }
}

// WithLogger sets the structured logger request lines are emitted through
// (nil keeps slog.Default).
func WithLogger(l *slog.Logger) ServerOption {
	return func(c *serverConfig) { c.logger = l }
}

// WithSlowRequest sets the latency at or above which a request logs at Warn
// instead of Debug (<= 0 keeps obs.DefaultSlowRequest).
func WithSlowRequest(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.slow = d }
}

// WithVersion surfaces the build version in /healthz.
func WithVersion(v string) ServerOption {
	return func(c *serverConfig) { c.version = v }
}

// NewServer wraps a collector backend for serving. Every route is
// instrumented: per-endpoint request counts and latency histograms, trace-id
// propagation (Ldp-Request-Id minted when absent, echoed always), and
// structured request logs. GET /metrics serves the registry in Prometheus
// text format.
func NewServer(b Backend, info Info, opts ...ServerOption) (*Server, error) {
	if b == nil {
		return nil, errors.New("transport: nil backend")
	}
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = obs.NewRegistry()
	}
	s := &Server{backend: b, info: info, mux: http.NewServeMux(), idem: newIdemCache(IdempotencyHorizon),
		maxRequestBytes: DefaultMaxRequestBytes,
		metrics:         cfg.reg,
		version:         cfg.version,
		decodeRejects: cfg.reg.Counter("ldp_ingest_decode_rejections_total",
			"POST /reports requests aborted before ingest: malformed frames or oversized bodies."),
		idemReplays: cfg.reg.Counter("ldp_ingest_idempotent_replays_total",
			"Duplicate keyed ingest requests answered from the idempotency cache instead of re-absorbed."),
	}
	hm := obs.NewHTTPMetrics(cfg.reg, "collector", cfg.logger, cfg.slow)
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.mux.Handle(pattern, hm.Wrap(endpoint, h))
	}
	route("POST /reports", "reports", s.handleReports)
	route("POST /query", "query", s.handleQuery)
	route("GET /snapshot", "snapshot", s.handleSnapshot)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", cfg.reg.Handler())
	return s, nil
}

// Metrics returns the server's registry (never nil), for embedders that
// register additional families on the same /metrics exposition.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetMaxRequestBytes overrides the POST /reports body bound (n <= 0 keeps
// the default). Call before serving traffic.
func (s *Server) SetMaxRequestBytes(n int64) {
	if n > 0 {
		s.maxRequestBytes = n
	}
}

// Drain marks the server draining: ingest answers 503 + Retry-After instead
// of hanging into a shutdown, /readyz flips to 503, and /healthz keeps
// answering 200 (alive, not ready) with the final count — reads stay up so a
// fan-in tier can pull the last snapshot. Drain is one-way.
func (s *Server) Drain() {
	s.readyMu.Lock()
	s.draining = true
	s.readyMu.Unlock()
}

// SetReady declares a transient readiness state: ready=false with a reason
// (e.g. "recovering") gates the shard out of router membership while it
// stays alive; ready=true clears it. Draining overrides — a draining server
// never reports ready again.
func (s *Server) SetReady(ready bool, reason string) {
	s.readyMu.Lock()
	if ready {
		s.notReadyReason = ""
	} else {
		if reason == "" {
			reason = "not ready"
		}
		s.notReadyReason = reason
	}
	s.readyMu.Unlock()
}

// readiness returns the current (ready, reason) pair.
func (s *Server) readiness() (bool, string) {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	if s.draining {
		return false, "draining"
	}
	if s.notReadyReason != "" {
		return false, s.notReadyReason
	}
	return true, ""
}

// SeedIdempotency pre-fills the idempotency cache with keys a recovery proved
// absorbed, oldest first: a client that retries a batch whose response was
// lost to a crash gets a recorded outcome replayed instead of a second
// absorb. Call before serving traffic. Keys the transport would not have
// accepted (empty or oversized) are skipped; when there are more keys than
// the cache holds, the newest win.
//
// The seeded outcome is deliberately a definitive 409, not a 200: the log
// proves k.Reports reports landed under the key, but not that they were the
// request's *entire* batch — a multi-frame request interrupted mid-way logs
// only its absorbed prefix. Replaying a 409 with the recovered count makes
// the retrying client trim exactly that prefix and re-send any remainder
// under a fresh key (the transport's definitive-rejection path), so a
// complete batch costs the client one extra round trip after a crash and a
// partial one is completed instead of silently losing its suffix.
func (s *Server) SeedIdempotency(keys []KeyCount) {
	for _, k := range keys {
		if k.Key == "" || len(k.Key) > MaxIdempotencyKeyLen {
			continue
		}
		s.idem.seed(k.Key, http.StatusConflict, IngestResponse{
			Accepted: int(k.Reports),
			Error:    "request interrupted by a collector restart; the accepted count is what the write-ahead log recovered under this key",
		})
	}
}

// IngestResponse is the POST /reports JSON response body (and the error body
// of POST /query) — exported so a router in front of the shards answers in
// the shard's own type.
type IngestResponse struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	// A draining (or otherwise not-ready) shard refuses ingest up front with
	// a retryable 503 instead of racing the listener shutdown: the client's
	// keyed batch stays intact and lands on a ready shard or a later retry.
	if ready, reason := s.readiness(); !ready {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: "collector not ready: " + reason})
		return
	}
	// Bound the body before any decoding: a frame decoder never sees more
	// than maxRequestBytes, and an overlong request fails 413 (definitive)
	// with the accepted count, so the client trims and re-sends the rest.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxRequestBytes)
	key := r.Header.Get(IdempotencyKeyHeader)
	if len(key) > MaxIdempotencyKeyLen {
		key = ""
	}
	var claim *idemOutcome
	for key != "" {
		entry, owner := s.idem.begin(key)
		if owner {
			claim = entry
			break
		}
		// Another request holds (or held) this key. Wait for its outcome and
		// replay it — absorbing here would double-count the batch the
		// original request is still applying. A holder that died without an
		// outcome releases the key; loop to claim it.
		select {
		case <-entry.done:
		case <-r.Context().Done():
			return // client gone; nothing to replay to
		}
		if status, resp, ok := s.idem.outcome(entry); ok {
			s.idemReplays.Inc()
			WriteJSON(w, status, resp)
			return
		}
	}
	finished := false
	if claim != nil {
		// If the handler dies before recording an outcome (e.g. the request
		// body errors in a way that panics upstream), release the claim so
		// waiters and retries reprocess instead of hanging on a dead key.
		defer func() {
			if !finished {
				s.idem.abort(claim)
			}
		}()
	}
	finish := func(status int, resp IngestResponse) {
		// An outcome is remembered only when the request applied reports.
		// Then a replayed 400 carries the same accepted count as the
		// original, so the client trims exactly the prefix the server really
		// applied even when the first response never arrived. A request that
		// applied nothing leaves its claim to the deferred abort, as the
		// retryable path does: a durable backend learns a key only with its
		// logged reports, and the live horizon must hold the keys a restarted
		// one rebuilds.
		if claim != nil && resp.Accepted > 0 {
			s.idem.finish(claim, status, resp)
			finished = true
		}
		WriteJSON(w, status, resp)
	}
	accepted := 0
	for {
		reports, err := DecodeReports(r.Body)
		if err == ErrFrameEOF {
			break
		}
		if err != nil {
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
			s.decodeRejects.Inc()
			finish(status, IngestResponse{Accepted: accepted, Error: err.Error()})
			return
		}
		// The key rides down with each frame: a durable backend logs it with
		// the batch, so the request's idempotency survives a crash-restart
		// (the recovered key re-seeds this cache).
		if err := s.backend.IngestBatch(reports, key); err != nil {
			status := http.StatusBadRequest
			var se *StatusError
			if errors.As(err, &se) {
				status = se.StatusCode
			}
			resp := IngestResponse{Accepted: accepted, Error: err.Error()}
			if se != nil && se.Temporary() {
				if accepted == 0 {
					// The backend cannot absorb right now (a failed WAL append)
					// and nothing of this request was applied: answer retryable
					// and leave the claim to the deferred abort, so a same-key
					// retry reaches the backend again instead of a cached error.
					w.Header().Set("Retry-After", "1")
					WriteJSON(w, status, resp)
					return
				}
				// Earlier frames of this request are already absorbed, so a
				// same-key retry of the whole body would re-apply them. Answer
				// definitively with the applied prefix — as after a restart —
				// and the client re-sends only the rest under a fresh key.
				status = http.StatusConflict
			}
			finish(status, resp)
			return
		}
		accepted += len(reports)
	}
	finish(http.StatusOK, IngestResponse{Accepted: accepted})
}

// TrackingWriter records whether any response bytes went out, deciding
// between a clean error status and a connection abort when a query fails.
type TrackingWriter struct {
	W     io.Writer
	Wrote bool
}

func (t *TrackingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		t.Wrote = true
	}
	return t.W.Write(p)
}

// handleQuery serves POST /query: one query-request frame in, a stream of
// query-result frames out.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, headerLen+MaxQueryPayload)
	q, err := DecodeQueryFrame(r.Body)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, IngestResponse{Error: err.Error()})
		return
	}
	tw := &TrackingWriter{W: w}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.backend.Query(q, tw); err != nil {
		if tw.Wrote {
			// The stream is committed; drop the connection so the client sees
			// a truncated result instead of a silently short one.
			panic(http.ErrAbortHandler)
		}
		status := http.StatusUnprocessableEntity
		var se *StatusError
		if errors.As(err, &se) {
			status = se.StatusCode
		}
		WriteJSON(w, status, IngestResponse{Error: err.Error()})
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if eq := r.URL.Query().Get("epoch"); eq != "" {
		epoch, err := strconv.ParseUint(eq, 10, 64)
		if err != nil {
			http.Error(w, "transport: invalid epoch: "+err.Error(), http.StatusBadRequest)
			return
		}
		nearest := r.URL.Query().Get("nearest") == "1"
		snap, err = s.backend.SnapshotAt(epoch, nearest)
		if err != nil {
			var enr *EpochNotRetainedError
			if errors.As(err, &enr) {
				// The epoch was coarsened away (or never existed): a definitive
				// 404 whose body names the retained range, so the caller can
				// pick a retained epoch instead of retrying.
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		state, count, epoch := s.backend.SnapshotEpoch()
		snap = Snapshot{State: state, Count: count, Epoch: epoch, Info: s.info}
	}
	if err := snapshotFrameError(snap); err != nil {
		// An unframeable snapshot (oversized identity or state) is a server
		// misconfiguration; nothing has been written yet, so report it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := EncodeSnapshotFrame(w, snap); err != nil {
		// A mid-write failure: the header is out, so all we can do is drop
		// the connection and let the client see a truncated frame instead of
		// a silent short read.
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	count, epoch := s.backend.CountEpoch()
	ready, reason := s.readiness()
	status := "ok"
	if !ready {
		status = reason
	}
	h := Health{Status: status, Count: count, Epoch: epoch, Version: s.version, Ready: ready, Reason: reason, Info: s.info}
	if d, ok := s.backend.Durability(); ok {
		h.Durability = &d
	}
	WriteJSON(w, http.StatusOK, h)
}

// readyzResponse is the GET /readyz JSON body.
type readyzResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleReadyz is the readiness probe: 200 when the shard should receive
// traffic, 503 (alive, not ready) while recovering or draining. Liveness
// stays on /healthz, which answers 200 in both cases.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.readiness()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, readyzResponse{Ready: ready, Reason: reason})
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Body writes after WriteHeader can only fail on a dead connection.
		_ = err
	}
}

// StatusError reports a non-2xx transport response. Its presence in an error
// chain means the server definitively answered the request — as opposed to a
// network failure, where the request may have been applied and the response
// lost.
type StatusError struct {
	StatusCode int
	Msg        string
	// RetryAfter is the server's Retry-After response header, parsed (0 when
	// absent). A draining shard's 503 says when ingest is worth retrying; the
	// retry package honors it through RetryAfterHint, capped at the retry
	// policy's own MaxBackoff.
	RetryAfter time.Duration
}

// RetryAfterHint implements retry.RetryAfterHinter.
func (e *StatusError) RetryAfterHint() time.Duration { return e.RetryAfter }

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("transport: server returned %d: %s", e.StatusCode, e.Msg)
	}
	return fmt.Sprintf("transport: server returned %d", e.StatusCode)
}

// EpochNotRetainedError reports a historical snapshot request for an epoch
// the retention ladder does not hold: either it was coarsened away or it
// never existed. It is definitive — retrying the same epoch cannot succeed —
// and carries the retained range so the caller can choose a retained epoch.
type EpochNotRetainedError struct {
	// Requested is the epoch asked for.
	Requested uint64
	// Oldest and Newest bound the retained epochs (both 0 when none are).
	Oldest, Newest uint64
	// Nearest is the newest retained epoch ≤ Requested (0 when none is).
	Nearest uint64
}

func (e *EpochNotRetainedError) Error() string {
	if e.Oldest == 0 && e.Newest == 0 {
		return fmt.Sprintf("transport: epoch %d is not retained (no epochs retained)", e.Requested)
	}
	return fmt.Sprintf("transport: epoch %d is not retained (retained range %d..%d, nearest at or below: %d)",
		e.Requested, e.Oldest, e.Newest, e.Nearest)
}

// Temporary reports whether the response is worth retrying: 408 (request
// timeout), 429 (throttled), and every 5xx mean the server is alive but
// cannot serve right now. Everything else — the 4xx family in particular —
// is a definitive answer that a retry of the same request cannot change.
func (e *StatusError) Temporary() bool {
	return e.StatusCode == http.StatusRequestTimeout ||
		e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode >= 500
}
