package ldp_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/baselines"
)

// fastRetryPolicy is a fully deterministic retry discipline for tests: no
// jitter, no real sleeping (the schedule is recorded into *slept when
// non-nil), bounded attempts.
func fastRetryPolicy(attempts int, slept *[]time.Duration) ldp.RetryPolicy {
	return ldp.RetryPolicy{
		MaxAttempts:    attempts,
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		Jitter:         0,
		Rand:           func() float64 { return 0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			if slept != nil {
				*slept = append(*slept, d)
			}
			return ctx.Err()
		},
	}
}

// retryHarness builds a collector behind an outer handler that kills the
// response of selected POSTs after the collector has fully absorbed them —
// the lost-response failure idempotency keys exist for.
func retryHarness(t *testing.T, n int, loseResponse func(post int64) bool) (*ldp.Collector, *httptest.Server, ldp.Aggregator) {
	t.Helper()
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, ldp.Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := collectorHandler(t, col, ldp.MechanismInfoOf(agg))
	var posts atomic.Int64
	outer := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && loseResponse(posts.Add(1)) {
			inner.ServeHTTP(httptest.NewRecorder(), req)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(rw, req)
	})
	hs := httptest.NewServer(outer)
	t.Cleanup(hs.Close)
	return col, hs, agg
}

// The at-least-once regression the idempotency keys exist for, under the
// fail-fast policy (MaxAttempts 1, the pre-backoff behavior): the server
// absorbs a batch, the HTTP response is lost, the client surfaces the error
// — and the caller-driven retry must land exactly once via key replay.
func TestRemoteRetryAfterLostResponseAbsorbsOnce(t *testing.T) {
	const n, total = 16, 95
	col, hs, agg := retryHarness(t, n, func(post int64) bool { return post == 1 })

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(512),
		ldp.WithRemoteHTTPClient(hs.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % n}); err != nil {
			t.Fatal(err)
		}
	}
	// First Flush ships the whole buffer as one keyed batch; the server
	// absorbs it and the response dies. With retries disabled the failure
	// surfaces to the caller.
	if err := rcol.Flush(ctx); err == nil {
		t.Fatal("flush through the aborted response unexpectedly succeeded")
	}
	if got := col.Count(); got != total {
		t.Fatalf("server absorbed %v reports before the retry, want %d", got, total)
	}
	// The retry re-sends the same batch under the same key; the server must
	// replay, not re-absorb.
	if err := rcol.Flush(ctx); err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	assertExactMass(t, col, total)
}

// With the retry policy on (the default posture), a lost response never
// reaches the caller at all: ship backs off, retries under the same key, the
// server replays, and one Flush call delivers everything exactly once. The
// pinned deterministic policy also asserts the backoff schedule taken.
func TestRemoteRetryPolicyRetriesLostResponseInternally(t *testing.T) {
	const n, total = 16, 95
	col, hs, agg := retryHarness(t, n, func(post int64) bool { return post == 1 })

	var slept []time.Duration
	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(512),
		ldp.WithRemoteHTTPClient(hs.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(4, &slept)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcol.Flush(ctx); err != nil {
		t.Fatalf("flush with retries enabled: %v", err)
	}
	// Exactly one pause (the first retry already succeeded via replay), at
	// the pinned initial backoff.
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms]", slept)
	}
	assertExactMass(t, col, total)
}

// A lost response on an intermediate batch must not stall the later ones:
// the retrying ship replays the unacknowledged batch and everything behind
// it, and the final state is exactly one copy of every report — here with
// every other response dying.
func TestRemoteRetryInterleavedWithIngestion(t *testing.T) {
	const n, total = 16, 95
	col, hs, agg := retryHarness(t, n, func(post int64) bool { return post%2 == 1 })

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(10),
		ldp.WithRemoteHTTPClient(hs.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(4, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		// With half of all responses dying, the internal retry absorbs every
		// failure: no error should surface at any point.
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % n}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if err := rcol.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	assertExactMass(t, col, total)
}

// assertExactMass checks the collector holds exactly total reports of total
// mass — the exactly-once invariant (no loss, no duplication).
func assertExactMass(t *testing.T, col *ldp.Collector, total float64) {
	t.Helper()
	snap := col.Snap()
	if snap.Count() != total {
		t.Fatalf("server holds %v reports, want exactly %v", snap.Count(), total)
	}
	var mass float64
	for _, v := range snap.State() {
		mass += v
	}
	if mass != total {
		t.Fatalf("accumulator mass %v, want %v (loss or duplication)", mass, total)
	}
}
