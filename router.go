package ldp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/transport"
)

// IdempotencyKeyHeader re-exports the transport's retry-safety header for
// clients building raw requests against a shard or router.
const IdempotencyKeyHeader = transport.IdempotencyKeyHeader

// EncodeReportsFrame writes one length-prefixed report frame — the POST
// /reports body unit — re-exported for raw-protocol clients and tests.
func EncodeReportsFrame(w io.Writer, reports []Report) error {
	frame, err := transport.AppendReportsFrame(nil, reports)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// Coverage headers a FleetServer stamps on GET /snapshot responses, so a
// client of the framed protocol (which has no field for partiality) still
// learns when an estimate is degraded and by how much.
const (
	// CoverageHeader is the operator summary, e.g. "3/4 shards (1 stale)".
	CoverageHeader = "Ldp-Fleet-Coverage"
	// CoverageMergedHeader / CoverageTotalHeader / CoverageStaleHeader are
	// the machine-readable counts behind the summary.
	CoverageMergedHeader = "Ldp-Fleet-Shards-Merged"
	CoverageTotalHeader  = "Ldp-Fleet-Shards-Total"
	CoverageStaleHeader  = "Ldp-Fleet-Shards-Stale"
)

// FleetServer serves a Fleet over the same framed HTTP protocol a single
// collector shard speaks, so any existing client — a RemoteCollector, an
// ldpquery -servers reader — can point at the router unchanged and transparently talk
// to N health-gated shards behind it:
//
//	POST /reports    route a (keyed) batch to a live shard, key-sticky
//	GET  /snapshot   degraded-tolerant merged snapshot + coverage headers
//	GET  /healthz    liveness + mechanism identity + per-shard membership
//	GET  /readyz     readiness: enough live shards to meet the quorum
//	GET  /shards     membership listing (JSON)
//	POST /shards     register a shard  {"endpoint": "http://..."}
//	DELETE /shards   deregister        ?endpoint=http://...
//
// The router itself is stateless apart from the key→shard binding (see
// Fleet.IngestKeyed, its only ingest path; WithFleetBindingLog makes the
// binding durable) and queues nothing: shard-side idempotency caches and
// write-ahead logs remain the single source of exactly-once truth, which is
// why a forwarding failure surfaces as a retryable 503 — the client retries
// the same key, the binding replays it on the same shard, and the shard
// deduplicates.
type FleetServer struct {
	fleet           *Fleet
	mux             *http.ServeMux
	metrics         *obs.Registry
	maxRequestBytes int64

	mu        sync.Mutex
	draining  bool
	queryAgg  Aggregator
	queryPool *EstimatorPool
}

// NewFleetServer wraps a Fleet in its HTTP tier. Every route is traced and
// measured (ldp_http_* with component="router"), the fleet's health/merge/
// breaker families are armed on the same registry, and GET /metrics serves
// the Prometheus exposition.
func NewFleetServer(f *Fleet, opts ...ServiceOption) (*FleetServer, error) {
	if f == nil {
		return nil, errors.New("ldp: nil fleet")
	}
	var cfg serviceConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	reg := obs.NewRegistry()
	s := &FleetServer{fleet: f, mux: http.NewServeMux(), metrics: reg, maxRequestBytes: transport.DefaultMaxRequestBytes}
	hm := obs.NewHTTPMetrics(reg, "router", cfg.logger, cfg.slow)
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.mux.Handle(pattern, hm.Wrap(endpoint, h))
	}
	route("POST /reports", "reports", s.handleReports)
	route("POST /query", "query", s.handleQuery)
	route("GET /snapshot", "snapshot", s.handleSnapshot)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	route("GET /shards", "shards", s.handleShardsList)
	route("POST /shards", "shards", s.handleShardsRegister)
	route("DELETE /shards", "shards", s.handleShardsDeregister)
	route("POST /shards/drain", "shards_drain", s.handleShardsDrain)
	route("POST /shards/undrain", "shards_undrain", s.handleShardsUndrain)
	s.mux.Handle("GET /metrics", reg.Handler())
	f.enableMetrics(reg)
	registerBuildInfo(reg)
	return s, nil
}

// Handler returns the router's HTTP handler.
func (s *FleetServer) Handler() http.Handler { return s.mux }

// Metrics returns the router's metrics registry (also served at GET
// /metrics), so an embedding harness can read series without a scrape.
func (s *FleetServer) Metrics() *obs.Registry { return s.metrics }

// SetMaxRequestBytes overrides the POST /reports body bound (n <= 0 keeps
// the default). Call before serving traffic.
func (s *FleetServer) SetMaxRequestBytes(n int64) {
	if n > 0 {
		s.maxRequestBytes = n
	}
}

// Drain marks the router draining: ingest and membership changes answer 503,
// snapshot reads stay up for a final pull. One-way.
func (s *FleetServer) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

func (s *FleetServer) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleReports validates the request's frames with the shard's own decoder
// and forwards the bytes it validated, verbatim, under the request's key. The
// router holds no reports and runs no encoder; a structurally malformed body
// is refused here with nothing forwarded and no key bound. What a frame
// *means* — Check against the mechanism, per-frame atomicity, the accepted
// count — is the shard's answer, relayed exactly as a direct POST of the same
// body would have read it.
func (s *FleetServer) handleReports(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		w.Header().Set("Retry-After", "1")
		transport.WriteJSON(w, http.StatusServiceUnavailable, transport.IngestResponse{Error: "router draining"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxRequestBytes))
	for frames := bytes.NewReader(body); err == nil; {
		_, err = transport.DecodeReports(frames)
	}
	if err != transport.ErrFrameEOF {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		transport.WriteJSON(w, status, transport.IngestResponse{Error: err.Error()})
		return
	}

	accepted, err := s.fleet.IngestKeyed(r.Context(), body, r.Header.Get(transport.IdempotencyKeyHeader))
	if err == nil {
		transport.WriteJSON(w, http.StatusOK, transport.IngestResponse{Accepted: accepted})
		return
	}
	// Relay the shard's definitive answer verbatim; everything else — no
	// live shard, network failure, shard 5xx — is weather the client should
	// retry through (same key, same binding, no double-absorb).
	var se *StatusError
	if errors.As(err, &se) && !se.Temporary() {
		transport.WriteJSON(w, se.StatusCode, transport.IngestResponse{Accepted: accepted, Error: se.Msg})
		return
	}
	w.Header().Set("Retry-After", "1")
	transport.WriteJSON(w, http.StatusServiceUnavailable, transport.IngestResponse{Accepted: accepted, Error: err.Error()})
}

func (s *FleetServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, cov, err := s.fleet.Snap(r.Context())
	if err != nil {
		var qe *QuorumError
		status := http.StatusServiceUnavailable
		if errors.As(err, &qe) {
			// Below quorum is still 503 — the client should retry once
			// shards return — but the body says exactly what was missing.
			s.coverageHeaders(w, qe.Coverage)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), status)
		return
	}
	s.coverageHeaders(w, cov)
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = transport.EncodeSnapshotFrame(w, transport.Snapshot{
		State: snap.State(),
		Count: snap.Count(),
		Epoch: snap.Epoch(),
		Info:  s.fleet.Info(),
	})
}

// EnableQueries arms POST /query on the router: queries fan in through the
// fleet's degraded-tolerant merged snapshot (coverage headers intact) and are
// answered by agg's reconstruction through pool-cached estimators. agg must
// be the same mechanism the fleet's shards aggregate under; a mismatch is
// refused here rather than producing silently wrong reconstructions. Call
// before serving traffic.
func (s *FleetServer) EnableQueries(agg Aggregator, opts ...PoolOption) error {
	if agg == nil {
		return errors.New("ldp: nil aggregator")
	}
	if _, err := admit("query aggregator", s.fleet.info, s.fleet.agg.StateLen(), MechanismInfoOf(agg), agg.StateLen()); err != nil {
		return err
	}
	s.mu.Lock()
	s.queryAgg = agg
	s.queryPool = NewEstimatorPool(opts...)
	s.mu.Unlock()
	return nil
}

func (s *FleetServer) queryEngine() (Aggregator, *EstimatorPool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queryAgg, s.queryPool
}

// handleQuery answers a workload query over the fleet's merged snapshot.
// Reads stay up while draining, exactly like GET /snapshot.
func (s *FleetServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	agg, pool := s.queryEngine()
	if agg == nil {
		http.Error(w, "ldp: this router does not serve queries (EnableQueries not configured)", http.StatusNotFound)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, int64(transport.MaxQueryPayload)+64)
	q, err := transport.DecodeQueryFrame(r.Body)
	if err != nil {
		transport.WriteJSON(w, http.StatusBadRequest, transport.IngestResponse{Error: err.Error()})
		return
	}
	snap, cov, err := s.fleet.Snap(r.Context())
	if err != nil {
		var qe *QuorumError
		if errors.As(err, &qe) {
			s.coverageHeaders(w, qe.Coverage)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.coverageHeaders(w, cov)
	w.Header().Set("Content-Type", "application/octet-stream")
	tw := &transport.TrackingWriter{W: w}
	if err := answerQuery(pool, agg, snap, q, tw); err != nil {
		if tw.Wrote {
			panic(http.ErrAbortHandler)
		}
		status := http.StatusUnprocessableEntity
		var se *StatusError
		if errors.As(err, &se) {
			status = se.StatusCode
		}
		transport.WriteJSON(w, status, transport.IngestResponse{Error: err.Error()})
	}
}

func (s *FleetServer) coverageHeaders(w http.ResponseWriter, cov Coverage) {
	h := w.Header()
	h.Set(CoverageHeader, cov.String())
	h.Set(CoverageMergedHeader, strconv.Itoa(cov.Merged()))
	h.Set(CoverageTotalHeader, strconv.Itoa(cov.Total))
	h.Set(CoverageStaleHeader, strconv.Itoa(cov.Stale))
}

// fleetHealth extends the shard health body with the router's membership
// view; clients decoding transport.Health ignore the extra fields, so
// RemoteCollector.Verify works against a router unchanged.
type fleetHealth struct {
	transport.Health
	Members []MemberState `json:"members"`
	Quorum  int           `json:"quorum,omitempty"`
}

func (s *FleetServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness must stay cheap and answer even with every shard down: count
	// and epoch are the fleet's last-good view, no network round-trips.
	members := s.fleet.Members()
	var count float64
	var epoch uint64
	for _, m := range members {
		count += m.LastCount
		if m.LastEpoch > epoch {
			epoch = m.LastEpoch
		}
	}
	ready, reason := s.readiness(members)
	status := "ok"
	if !ready {
		status = reason
	}
	transport.WriteJSON(w, http.StatusOK, fleetHealth{
		Health: transport.Health{
			Status:  status,
			Count:   count,
			Epoch:   epoch,
			Ready:   ready,
			Reason:  reason,
			Info:    s.fleet.Info(),
			Version: BuildInfo().Version,
		},
		Members: members,
		Quorum:  s.fleet.quorum,
	})
}

// readiness: the router should receive traffic when it is not draining and
// enough shards are routable to meet the quorum (at least one without one).
func (s *FleetServer) readiness(members []MemberState) (bool, string) {
	if s.isDraining() {
		return false, "draining"
	}
	need := s.fleet.quorum
	if need < 1 {
		need = 1
	}
	ready := 0
	for _, m := range members {
		if m.Ready && m.Breaker != "open" {
			ready++
		}
	}
	if ready < need {
		return false, fmt.Sprintf("%d of %d required shards routable", ready, need)
	}
	return true, ""
}

func (s *FleetServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.readiness(s.fleet.Members())
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	transport.WriteJSON(w, status, struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}{ready, reason})
}

// shardsJSON is the membership listing body.
type shardsJSON struct {
	Members []MemberState `json:"members"`
}

func (s *FleetServer) handleShardsList(w http.ResponseWriter, r *http.Request) {
	transport.WriteJSON(w, http.StatusOK, shardsJSON{Members: s.fleet.Members()})
}

func (s *FleetServer) handleShardsRegister(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "router draining", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Endpoint string `json:"endpoint"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Endpoint == "" {
		http.Error(w, "body must be {\"endpoint\": \"http://...\"}", http.StatusBadRequest)
		return
	}
	if err := s.fleet.Register(r.Context(), req.Endpoint); err != nil {
		// A mechanism mismatch is the caller's configuration error.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	transport.WriteJSON(w, http.StatusOK, shardsJSON{Members: s.fleet.Members()})
}

func (s *FleetServer) handleShardsDeregister(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "router draining", http.StatusServiceUnavailable)
		return
	}
	endpoint := r.URL.Query().Get("endpoint")
	if endpoint == "" {
		http.Error(w, "missing ?endpoint=", http.StatusBadRequest)
		return
	}
	if !s.fleet.Deregister(endpoint) {
		http.Error(w, "not a member", http.StatusNotFound)
		return
	}
	transport.WriteJSON(w, http.StatusOK, shardsJSON{Members: s.fleet.Members()})
}

// handleShardsDrain gates one member out of ingest routing (Fleet.Gate): the
// shard stays registered, mergeable, and serving reads, but receives no new
// reports until undrained — the hook a rolling restart (or a load scenario)
// drives before taking a shard down.
func (s *FleetServer) handleShardsDrain(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "router draining", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Endpoint string `json:"endpoint"`
		Reason   string `json:"reason"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Endpoint == "" {
		http.Error(w, "body must be {\"endpoint\": \"http://...\", \"reason\": \"...\"}", http.StatusBadRequest)
		return
	}
	if req.Reason == "" {
		req.Reason = "draining"
	}
	if !s.fleet.Gate(req.Endpoint, req.Reason) {
		http.Error(w, "not a member", http.StatusNotFound)
		return
	}
	transport.WriteJSON(w, http.StatusOK, shardsJSON{Members: s.fleet.Members()})
}

// handleShardsUndrain lifts a drain gate (Fleet.Ungate).
func (s *FleetServer) handleShardsUndrain(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "router draining", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Endpoint string `json:"endpoint"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Endpoint == "" {
		http.Error(w, "body must be {\"endpoint\": \"http://...\"}", http.StatusBadRequest)
		return
	}
	if !s.fleet.Ungate(req.Endpoint) {
		http.Error(w, "not a member", http.StatusNotFound)
		return
	}
	transport.WriteJSON(w, http.StatusOK, shardsJSON{Members: s.fleet.Members()})
}

// Fleet returns the underlying fleet, so a harness embedding the server
// in-process can drive registration, probes, and drain gates directly.
func (s *FleetServer) Fleet() *Fleet { return s.fleet }

// Probe re-exports the fleet's health round for the serving binary's ticker.
func (s *FleetServer) Probe(ctx context.Context) []MemberState { return s.fleet.Probe(ctx) }
