package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	ldp "repro"
	"repro/internal/obs"
	"repro/internal/transport"
)

// listener is one in-process tier behind a real http.Server on loopback TCP,
// with the timeouts cmd/ldpserve and cmd/ldprouter configure.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       5 * time.Minute,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    1 << 16,
		},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its accept loop to exit.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// faultInjector answers the next n requests with 503 before they reach the
// wrapped tier; the smoke test uses it to prove refusals are counted.
type faultInjector struct{ remaining atomic.Int64 }

func (f *faultInjector) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.remaining.Load() > 0 && f.remaining.Add(-1) >= 0 {
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// swapHandler lets the traced window put span-recording wrappers around a
// tier that is already serving, and take them off again.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(&h)
	return s
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// served is a listening tier whose handler the traced window can wrap.
type served struct {
	inner http.Handler
	swap  *swapHandler
	ln    *listener
}

// serveTier serves h behind a point where span recording can be swapped in.
// outside, when not nil, wraps that point (fault injection sits in front of
// everything).
func serveTier(h http.Handler, outside func(http.Handler) http.Handler) (*served, error) {
	swap := newSwapHandler(h)
	var outer http.Handler = swap
	if outside != nil {
		outer = outside(swap)
	}
	ln, err := serve(outer)
	if err != nil {
		return nil, err
	}
	return &served{inner: h, swap: swap, ln: ln}, nil
}

// traceAs wraps the tier's handler in span recording (spans are named
// name + request path) for one window and returns the function that takes the
// wrapper off again.
func (s *served) traceAs(tr *tracer, name string) func() {
	s.swap.set(tr.handler(name, s.inner))
	return func() { s.swap.set(s.inner) }
}

// conn is a transport client that owns exactly one TCP connection, so "two
// connections" in a workload's description is literally true.
type conn struct {
	*transport.Client
	tr *http.Transport
}

func dial(base string) (*conn, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 2 * time.Minute}
	c, err := transport.NewClient(base, &http.Client{Transport: tr, Timeout: 60 * time.Second})
	if err != nil {
		return nil, err
	}
	return &conn{Client: c, tr: tr}, nil
}

// scrape renders a tier's registry exactly as GET /metrics would and parses
// it back, so counts are read from the same exposition an operator sees.
func scrape(reg *obs.Registry) ([]obs.Sample, error) {
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		return nil, err
	}
	return obs.ParseText(strings.NewReader(sb.String()))
}

func sampleValue(s []obs.Sample, name, label string) float64 {
	v, _ := obs.SampleValue(s, name, label)
	return v
}

// withRequest tags ctx with the request id the transport will send, when the
// run is traced; an untraced run lets the client mint its own.
func withRequest(ctx context.Context, tr *tracer, id string) context.Context {
	if tr == nil {
		return ctx
	}
	return obs.WithRequestID(ctx, id)
}

// sameState reports whether two accumulators are bit-identical.
func sameState(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("state widths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("state[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// sameSnapshot reports whether two snapshots agree bit for bit in state and
// count (epochs are compared by the callers that expect them equal).
func sameSnapshot(a, b ldp.Snapshot) error {
	if a.Count() != b.Count() {
		return fmt.Errorf("counts differ: %v vs %v", a.Count(), b.Count())
	}
	return sameState(a.State(), b.State())
}
