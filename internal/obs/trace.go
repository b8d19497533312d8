package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the per-request trace id across every hop:
// minted at the edge (the transport client, or the first server to see a
// request without one), echoed in the response, and forwarded verbatim on
// every downstream call — so one ingest shows up under one id in the
// client's, the router's, and the shard's logs.
const RequestIDHeader = "Ldp-Request-Id"

type requestIDKey struct{}

// WithRequestID returns a context carrying the trace id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's trace id ("" when absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID mints a 16-hex-char random id. Collision risk over a log
// retention window is negligible (64 random bits) and the short form keeps
// log lines readable.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; degrade to a counter
		// rather than panicking inside request handling.
		return "fallback-" + hex.EncodeToString(fallbackID())
	}
	return hex.EncodeToString(b[:])
}

var fallbackCounter atomic.Uint64

func fallbackID() []byte {
	var b [8]byte
	n := fallbackCounter.Add(1)
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	return b[:]
}

// DefaultSlowRequest is the slow-request log threshold when the wiring
// doesn't choose one.
const DefaultSlowRequest = time.Second

// HTTPMetrics instruments a server's routes: per-endpoint request counters
// (by status code), per-endpoint latency histograms, trace-id propagation,
// and structured request logs with a slow-request threshold.
type HTTPMetrics struct {
	requests *CounterVec   // ldp_http_requests_total{endpoint,code}
	duration *HistogramVec // ldp_http_request_duration_seconds{endpoint}
	logger   *slog.Logger
	slow     time.Duration
	comp     string
}

// NewHTTPMetrics registers the shared HTTP families on reg. logger may be
// nil (slog.Default()); slow <= 0 uses DefaultSlowRequest. component names
// the serving tier in log lines ("collector", "router").
func NewHTTPMetrics(reg *Registry, component string, logger *slog.Logger, slow time.Duration) *HTTPMetrics {
	if logger == nil {
		logger = slog.Default()
	}
	if slow <= 0 {
		slow = DefaultSlowRequest
	}
	return &HTTPMetrics{
		requests: reg.CounterVec("ldp_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		duration: reg.HistogramVec("ldp_http_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", LatencyBounds(), "endpoint"),
		logger: logger,
		slow:   slow,
		comp:   component,
	}
}

// Wrap instruments one route. The returned handler:
//
//   - extracts the incoming Ldp-Request-Id (minting one when absent), puts
//     it in the request context for downstream propagation, and echoes it in
//     the response headers;
//   - counts the request under its final status code and observes its
//     latency in the endpoint's histogram — both 0 allocs/op on the steady
//     path (code cells resolve through a fixed array);
//   - logs a structured line: Debug normally, Warn at or above the
//     slow-request threshold or on 5xx.
func (m *HTTPMetrics) Wrap(endpoint string, next http.Handler) http.Handler {
	hist := m.duration.With(endpoint)
	var codes [600]atomic.Pointer[Counter]
	counterFor := func(code int) *Counter {
		if code < 100 || code >= 700 {
			code = 699
		}
		idx := code - 100
		if c := codes[idx].Load(); c != nil {
			return c
		}
		c := m.requests.With(endpoint, itoa3(code))
		codes[idx].CompareAndSwap(nil, c)
		return codes[idx].Load()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		ctx := WithRequestID(r.Context(), id)
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		d := time.Since(start)
		counterFor(sw.status).Inc()
		hist.ObserveDuration(d)
		level := slog.LevelDebug
		if d >= m.slow || sw.status >= 500 {
			level = slog.LevelWarn
		}
		if m.logger.Enabled(ctx, level) {
			m.logger.LogAttrs(ctx, level, "http request",
				slog.String("component", m.comp),
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Int("status", sw.status),
				slog.Duration("duration", d),
				slog.Bool("slow", d >= m.slow),
				slog.String("request_id", id),
			)
		}
	})
}

// itoa3 renders a 3-digit status code without fmt (keeps the first-hit label
// resolution cheap; steady-state hits never reach it).
func itoa3(code int) string {
	buf := [3]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)}
	return string(buf[:])
}

// statusWriter records the final status code. It forwards Flush (the
// streaming /query path uses it) and exposes Unwrap for
// http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
