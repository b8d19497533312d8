package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/protocol"
)

// The liveness/readiness split, pinned: /healthz answers 200 for as long as
// the process serves at all, /readyz flips to 503 the moment the shard
// should stop receiving traffic — recovering (SetReady false) or draining —
// and ingest refuses with a retryable 503 instead of absorbing into a
// shutdown.
func TestReadinessSplitsFromLiveness(t *testing.T) {
	backend := &memBackend{}
	s, err := NewServer(backend, Info{Mechanism: "TEST", Domain: 8, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c, err := NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Fresh server: alive and ready.
	ready, reason, err := c.Readyz(ctx)
	if err != nil || !ready || reason != "" {
		t.Fatalf("fresh readyz = (%v, %q, %v), want ready", ready, reason, err)
	}
	h, err := c.Healthz(ctx)
	if err != nil || !h.Ready || h.Status != "ok" {
		t.Fatalf("fresh healthz = %+v (err %v)", h, err)
	}

	// A transient not-ready phase (a shard mid-recovery): alive, gated out.
	s.SetReady(false, "recovering")
	ready, reason, err = c.Readyz(ctx)
	if err != nil || ready || reason != "recovering" {
		t.Fatalf("recovering readyz = (%v, %q, %v), want (false, recovering)", ready, reason, err)
	}
	if h, err = c.Healthz(ctx); err != nil || h.Ready || h.Reason != "recovering" {
		t.Fatalf("recovering healthz = %+v (err %v): liveness must stay 200 with ready=false", h, err)
	}
	if _, err := c.PostReportsKeyed(ctx, []protocol.Report{{Index: 1}}, ""); err == nil {
		t.Fatal("not-ready server accepted ingest")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable || !se.Temporary() {
			t.Fatalf("not-ready ingest error = %v, want a retryable 503", err)
		}
	}
	if backend.Count() != 0 {
		t.Fatalf("backend absorbed %v reports while not ready", backend.Count())
	}

	// Recovery finishes: ready again, ingest flows.
	s.SetReady(true, "")
	if ready, _, _ = c.Readyz(ctx); !ready {
		t.Fatal("readyz still false after SetReady(true)")
	}
	if _, err := c.PostReportsKeyed(ctx, []protocol.Report{{Index: 1}}, ""); err != nil {
		t.Fatalf("ready server refused ingest: %v", err)
	}

	// Drain: one-way not-ready, reads stay alive so the fan-in tier can pull
	// the final snapshot, and SetReady(true) cannot un-drain.
	s.Drain()
	s.SetReady(true, "")
	ready, reason, err = c.Readyz(ctx)
	if err != nil || ready || reason != "draining" {
		t.Fatalf("draining readyz = (%v, %q, %v), want (false, draining)", ready, reason, err)
	}
	if _, err := c.PostReportsKeyed(ctx, []protocol.Report{{Index: 2}}, ""); err == nil {
		t.Fatal("draining server accepted ingest")
	}
	if h, err = c.Healthz(ctx); err != nil || h.Ready || h.Status != "draining" {
		t.Fatalf("draining healthz = %+v (err %v)", h, err)
	}
	if snap, err := c.Snap(ctx); err != nil || snap.Count != 1 {
		t.Fatalf("draining snapshot = (%+v, %v): reads must survive the drain", snap, err)
	}
	if backend.Count() != 1 {
		t.Fatalf("backend count %v after drain-refused ingest, want 1", backend.Count())
	}
}

// A client against a server that predates /readyz must fall back to the
// liveness probe instead of declaring the shard not ready.
func TestReadyzFallsBackToHealthzOn404(t *testing.T) {
	backend := &memBackend{}
	s, err := NewServer(backend, Info{})
	if err != nil {
		t.Fatal(err)
	}
	// An old server: same handlers minus /readyz.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	c, err := NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	ready, reason, err := c.Readyz(context.Background())
	if err != nil || !ready || reason != "" {
		t.Fatalf("readyz against a pre-readiness server = (%v, %q, %v), want ready-while-alive", ready, reason, err)
	}
}

// The request-body bound: a POST past MaxRequestBytes fails 413 — a
// definitive status carrying the accepted count — instead of streaming
// without limit, and the frames that fit were applied.
func TestReportsBodyBounded(t *testing.T) {
	backend := &memBackend{}
	s, err := NewServer(backend, Info{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxRequestBytes(64) // a few reports fit, a big batch does not
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c, err := NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	small := []protocol.Report{{Index: 1}, {Index: 2}}
	if _, err := c.PostReportsKeyed(ctx, small, ""); err != nil {
		t.Fatalf("small batch refused: %v", err)
	}

	big := make([]protocol.Report, 4096)
	for i := range big {
		big[i] = protocol.Report{Index: i % 8}
	}
	_, err = c.PostReportsKeyed(ctx, big, "")
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body error = %v, want 413", err)
	}
	if se.Temporary() {
		t.Fatal("413 classified retryable — the same request would just fail again")
	}
}
