package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// memBackend is a minimal Backend: it appends reports and exposes a running
// index histogram, enough to observe exactly what the server ingested.
type memBackend struct {
	mu      sync.Mutex
	reports []protocol.Report
	reject  bool
	// failWith, when set, is what IngestBatch returns once passFirst batches
	// have been absorbed.
	failWith  error
	passFirst int
}

func (m *memBackend) IngestBatch(reports []protocol.Report, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reject {
		return errors.New("backend says no")
	}
	if m.failWith != nil {
		if m.passFirst == 0 {
			return m.failWith
		}
		m.passFirst--
	}
	m.reports = append(m.reports, reports...)
	return nil
}

func (m *memBackend) SnapshotEpoch() ([]float64, float64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	state := make([]float64, 8)
	for _, r := range m.reports {
		if r.Index >= 0 && r.Index < len(state) {
			state[r.Index]++
		}
	}
	// The report count doubles as the epoch: it advances exactly when the
	// state does, which is all the Backend contract asks.
	return state, float64(len(m.reports)), uint64(len(m.reports))
}

func (m *memBackend) CountEpoch() (float64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(len(m.reports)), uint64(len(m.reports))
}

// memBackend is memory-only and serves no queries, said through the return
// values the Backend contract gives those facts.
func (m *memBackend) Durability() (DurabilityHealth, bool) { return DurabilityHealth{}, false }

func (m *memBackend) SnapshotAt(epoch uint64, nearest bool) (Snapshot, error) {
	return Snapshot{}, &EpochNotRetainedError{Requested: epoch}
}

func (m *memBackend) Query(QueryRequest, io.Writer) error {
	return &StatusError{StatusCode: http.StatusNotFound, Msg: "memBackend serves no queries"}
}

func (m *memBackend) Count() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(len(m.reports))
}

func newTestServer(t *testing.T, b Backend) (*httptest.Server, *Client) {
	t.Helper()
	s, err := NewServer(b, Info{Mechanism: "TEST", Domain: 8, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c, err := NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	return hs, c
}

func TestServerEndToEnd(t *testing.T) {
	backend := &memBackend{}
	_, c := newTestServer(t, backend)
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Count != 0 || h.Mechanism != "TEST" || h.Domain != 8 || h.Epsilon != 1.5 {
		t.Fatalf("healthz: %+v", h)
	}

	batch := []protocol.Report{{Index: 1}, {Index: 1}, {Index: 5}}
	accepted, err := c.PostReportsKeyed(ctx, batch, "")
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(batch) {
		t.Fatalf("accepted %d, want %d", accepted, len(batch))
	}

	snap, err := c.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 3 || !reflect.DeepEqual(snap.State, []float64{0, 2, 0, 0, 0, 1, 0, 0}) {
		t.Fatalf("snapshot: count %v, state %v", snap.Count, snap.State)
	}
}

func TestServerMultiFrameBody(t *testing.T) {
	backend := &memBackend{}
	hs, _ := newTestServer(t, backend)

	var body bytes.Buffer
	if err := EncodeReports(&body, []protocol.Report{{Index: 0}, {Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeReports(&body, []protocol.Report{{Index: 2}}); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/reports", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := backend.Count(); got != 3 {
		t.Fatalf("ingested %v reports across frames, want 3", got)
	}
}

func TestServerRejectsMalformedBody(t *testing.T) {
	backend := &memBackend{}
	hs, _ := newTestServer(t, backend)
	resp, err := hs.Client().Post(hs.URL+"/reports", "application/octet-stream",
		bytes.NewReader([]byte("this is not a frame")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if backend.Count() != 0 {
		t.Fatal("malformed body mutated the backend")
	}
}

func TestClientSurfacesBackendRejection(t *testing.T) {
	backend := &memBackend{reject: true}
	_, c := newTestServer(t, backend)
	_, err := c.PostReportsKeyed(context.Background(), []protocol.Report{{Index: 1}}, "")
	if err == nil {
		t.Fatal("backend rejection not surfaced")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("want a 400 status error, got %v", err)
	}
}

// A keyed request is absorbed at most once: the second POST under the same
// idempotency key replays the recorded response without touching the
// backend — the lost-response retry contract.
func TestIdempotencyKeyReplaysResponse(t *testing.T) {
	backend := &memBackend{}
	_, c := newTestServer(t, backend)
	ctx := context.Background()
	batch := []protocol.Report{{Index: 1}, {Index: 2}, {Index: 3}}

	accepted, err := c.PostReportsKeyed(ctx, batch, "retry-key-1")
	if err != nil || accepted != 3 {
		t.Fatalf("first keyed post: %d, %v", accepted, err)
	}
	accepted, err = c.PostReportsKeyed(ctx, batch, "retry-key-1")
	if err != nil || accepted != 3 {
		t.Fatalf("replayed keyed post: %d, %v", accepted, err)
	}
	if got := backend.Count(); got != 3 {
		t.Fatalf("backend absorbed %v reports across a keyed retry, want exactly 3", got)
	}
	// A different key is a different request.
	if accepted, err = c.PostReportsKeyed(ctx, batch, "retry-key-2"); err != nil || accepted != 3 {
		t.Fatalf("fresh keyed post: %d, %v", accepted, err)
	}
	if got := backend.Count(); got != 6 {
		t.Fatalf("backend holds %v reports, want 6", got)
	}
	// Unkeyed requests never dedupe.
	if _, err = c.PostReportsKeyed(ctx, batch, ""); err != nil {
		t.Fatal(err)
	}
	if _, err = c.PostReportsKeyed(ctx, batch, ""); err != nil {
		t.Fatal(err)
	}
	if got := backend.Count(); got != 12 {
		t.Fatalf("backend holds %v reports, want 12", got)
	}
}

// Error responses replay too when their request applied reports: a retried
// key whose original request had its first frame absorbed and its second
// refused sees the same 400 with the same accepted count, not a second
// absorb. A refusal that applied nothing is not remembered — a durable
// backend never logs its key either — so the same key, retried once the
// backend takes it, is absorbed.
func TestIdempotencyKeyReplaysRejection(t *testing.T) {
	backend := &memBackend{failWith: errors.New("backend says no"), passFirst: 1}
	_, c := newTestServer(t, backend)
	ctx := context.Background()
	var body bytes.Buffer
	for _, frame := range [][]protocol.Report{{{Index: 1}}, {{Index: 2}}} {
		if err := EncodeReports(&body, frame); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 0; attempt < 2; attempt++ {
		accepted, err := c.PostFrames(ctx, body.Bytes(), "rejected-key")
		var se *StatusError
		if !errors.As(err, &se) || se.StatusCode != 400 || accepted != 1 {
			t.Fatalf("attempt %d: accepted %d, err %v; want a 400 carrying the applied frame", attempt, accepted, err)
		}
		// The backend recovers, but the recorded rejection must still replay.
		backend.mu.Lock()
		backend.failWith = nil
		backend.mu.Unlock()
	}
	if got := backend.Count(); got != 1 {
		t.Fatalf("backend holds %v reports, want 1: the rejection was not replayed", got)
	}

	backend.mu.Lock()
	backend.reject = true
	backend.mu.Unlock()
	batch := []protocol.Report{{Index: 3}}
	if _, err := c.PostReportsKeyed(ctx, batch, "refused-key"); err == nil {
		t.Fatal("want the backend's refusal")
	}
	backend.mu.Lock()
	backend.reject = false
	backend.mu.Unlock()
	if accepted, err := c.PostReportsKeyed(ctx, batch, "refused-key"); err != nil || accepted != 1 {
		t.Fatalf("same-key retry of a refusal that applied nothing: accepted %d, err %v", accepted, err)
	}
	if got := backend.Count(); got != 2 {
		t.Fatalf("backend holds %v reports, want 2", got)
	}
}

// A backend that cannot absorb right now — a failed WAL append surfaces as a
// Temporary *StatusError — is answered with its status plus Retry-After and
// is NOT remembered: the same key retried after the outage reaches the
// backend again. Once earlier frames of the request are applied the answer
// turns definitive (409 with the applied prefix) and is remembered, because
// a same-key retry of the whole body would absorb that prefix twice.
func TestTemporaryBackendErrorIsRetryableNotCached(t *testing.T) {
	outage := fmt.Errorf("ldp: %w", &StatusError{StatusCode: http.StatusServiceUnavailable, Msg: "write-ahead log: no space left on device"})
	backend := &memBackend{failWith: outage}
	hs, c := newTestServer(t, backend)
	ctx := context.Background()
	batch := []protocol.Report{{Index: 1}, {Index: 2}}

	_, err := c.PostReportsKeyed(ctx, batch, "wal-key")
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable || se.RetryAfter <= 0 {
		t.Fatalf("want a 503 with Retry-After, got %v", err)
	}
	backend.mu.Lock()
	backend.failWith = nil
	backend.mu.Unlock()
	accepted, err := c.PostReportsKeyed(ctx, batch, "wal-key")
	if err != nil || accepted != len(batch) {
		t.Fatalf("same-key retry after the outage: accepted %d, err %v", accepted, err)
	}
	if got := backend.Count(); got != float64(len(batch)) {
		t.Fatalf("backend holds %v reports, want %d — the 503 was cached", got, len(batch))
	}

	// Two frames, the outage hitting the second: the first is applied.
	backend.mu.Lock()
	backend.failWith, backend.passFirst = outage, 1
	backend.mu.Unlock()
	post := func() (int, IngestResponse) {
		var body bytes.Buffer
		for _, frame := range [][]protocol.Report{batch, {{Index: 3}}} {
			if err := EncodeReports(&body, frame); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/reports", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyKeyHeader, "partial-key")
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ir
	}
	for attempt := 0; attempt < 2; attempt++ {
		if status, ir := post(); status != http.StatusConflict || ir.Accepted != len(batch) {
			t.Fatalf("attempt %d: status %d accepted %d, want a definitive 409 carrying the applied prefix %d", attempt, status, ir.Accepted, len(batch))
		}
	}
	if got := backend.Count(); got != float64(2*len(batch)) {
		t.Fatalf("backend holds %v reports, want %d — the applied prefix was absorbed twice", got, 2*len(batch))
	}
}

// claimFinished claims a key and immediately records an outcome.
func claimFinished(t *testing.T, c *idemCache, key string, accepted int) {
	t.Helper()
	e, owner := c.begin(key)
	if !owner {
		t.Fatalf("key %q already claimed", key)
	}
	c.finish(e, 200, IngestResponse{Accepted: accepted})
}

// The outcome cache is bounded and forgets keys in first-seen order: a
// replay does not refresh a key, so the first finished key is evicted first
// even right after a replay; a key finished later is the newest whatever its
// claim's age; in-flight claims are never evicted; an aborted claim is
// reclaimable.
func TestIdemCacheEvictsLRU(t *testing.T) {
	c := newIdemCache(3)
	for _, k := range []string{"a", "b", "c"} {
		claimFinished(t, c, k, 1)
	}
	if _, owner := c.begin("a"); owner {
		t.Fatal("finished key handed out as a fresh claim")
	} // a replay: "a" stays the oldest
	held, owner := c.begin("x") // in flight across every sweep below
	if !owner {
		t.Fatal("fresh key not claimable")
	}
	claimFinished(t, c, "d", 1)
	again, owner := c.begin("a")
	if !owner {
		t.Fatal("the first-seen key survived eviction after a replay")
	}
	// "a" is a live claim again; finishing it makes it the newest key, which
	// evicts "b", the oldest finished one. "c", "d" and "a" stay replayable.
	c.finish(again, 200, IngestResponse{Accepted: 2})
	if _, owner := c.begin("b"); !owner {
		t.Fatal("the oldest finished key survived eviction")
	}
	for k, accepted := range map[string]int{"c": 1, "d": 1, "a": 2} {
		e, owner := c.begin(k)
		if owner {
			t.Fatalf("key %q evicted out of order", k)
		}
		if status, resp, ok := c.outcome(e); !ok || status != 200 || resp.Accepted != accepted {
			t.Fatalf("key %q outcome: %v %v %v", k, status, resp, ok)
		}
	}
	if e, owner := c.begin("x"); owner || e != held {
		t.Fatal("an in-flight claim was evicted")
	}
	// An aborted claim releases its key: the next begin owns it afresh.
	c.abort(held)
	if _, owner := c.begin("x"); !owner {
		t.Fatal("aborted key not reclaimable")
	}
}

// KeyHorizon's rules: Get never reorders, Put of a present key replaces its
// value in place, Put of an absent key makes it the newest and evicts the
// first seen past the bound, Delete then Put makes a key the newest, and All
// runs oldest first.
func TestKeyHorizonFirstSeenOrder(t *testing.T) {
	h := newKeyHorizon[int](3)
	list := func() string {
		var out []string
		for k, v := range h.All() {
			out = append(out, fmt.Sprintf("%s=%d", k, v))
		}
		return strings.Join(out, " ")
	}
	for i, k := range []string{"a", "b", "c"} {
		h.Put(k, i)
	}
	if v, ok := h.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	h.Put("b", 10)
	if got, want := list(), "a=0 b=10 c=2"; got != want {
		t.Fatalf("after Get and an in-place Put: %s, want %s", got, want)
	}
	h.Put("d", 3)
	if got, want := list(), "b=10 c=2 d=3"; got != want {
		t.Fatalf("after a Put past the bound: %s, want %s", got, want)
	}
	h.Delete("b")
	h.Delete("nope")
	h.Put("b", 11)
	if got, want := list(), "c=2 d=3 b=11"; got != want || h.Len() != 3 {
		t.Fatalf("after Delete then Put: %s (len %d), want %s", got, h.Len(), want)
	}
	h.Put("e", 4)
	if _, ok := h.Get("c"); ok {
		t.Fatal("the first-seen key survived eviction")
	}
}

// gatedBackend blocks IngestBatch until released, so a test can hold one
// keyed request mid-absorb while a duplicate arrives.
type gatedBackend struct {
	memBackend
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) IngestBatch(reports []protocol.Report, key string) error {
	g.entered <- struct{}{}
	<-g.release
	return g.memBackend.IngestBatch(reports, key)
}

// The in-flight window: a duplicate keyed request arriving while the
// original is still absorbing must wait for its outcome and replay it — not
// absorb a second copy.
func TestIdempotencyKeyInFlightDuplicate(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 2), release: make(chan struct{})}
	_, c := newTestServer(t, backend)
	ctx := context.Background()
	batch := []protocol.Report{{Index: 1}, {Index: 2}}

	type result struct {
		accepted int
		err      error
	}
	results := make(chan result, 2)
	post := func() {
		accepted, err := c.PostReportsKeyed(ctx, batch, "in-flight-key")
		results <- result{accepted, err}
	}
	go post()
	<-backend.entered // the first request is mid-absorb
	go post()
	// Give the duplicate time to reach the server; it must be parked on the
	// claim, not inside the backend (the gate would have signaled).
	select {
	case <-backend.entered:
		t.Fatal("duplicate keyed request reached the backend while the original was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(backend.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil || r.accepted != len(batch) {
			t.Fatalf("request %d: %d, %v", i, r.accepted, r.err)
		}
	}
	if got := backend.Count(); got != float64(len(batch)) {
		t.Fatalf("backend absorbed %v reports for one key, want exactly %d", got, len(batch))
	}
}

// /healthz reports the snapshot epoch alongside the count: the epoch
// advances when (and only when) the observed state changes, which is how an
// operator or ldpquery -servers spots a stale shard without pulling a snapshot.
func TestHealthzReportsEpoch(t *testing.T) {
	backend := &memBackend{}
	_, c := newTestServer(t, backend)
	ctx := context.Background()

	h1, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostReportsKeyed(ctx, []protocol.Report{{Index: 1}}, ""); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Epoch <= h1.Epoch {
		t.Fatalf("epoch did not advance after an ingest: %d -> %d", h1.Epoch, h2.Epoch)
	}
	if h2.Count != 1 {
		t.Fatalf("count %v, want 1", h2.Count)
	}
	h3, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Epoch != h2.Epoch || h3.Count != h2.Count {
		t.Fatalf("idle poll moved the view: %+v -> %+v", h2, h3)
	}
	// The snapshot frame carries the same epoch.
	snap, err := c.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != h3.Epoch {
		t.Fatalf("snapshot epoch %d, healthz epoch %d", snap.Epoch, h3.Epoch)
	}
	if snap.Info != (Info{Mechanism: "TEST", Domain: 8, Epsilon: 1.5}) {
		t.Fatalf("snapshot identity %+v", snap.Info)
	}
}

func TestServerMethodRouting(t *testing.T) {
	hs, _ := newTestServer(t, &memBackend{})
	// GET /reports and POST /snapshot are not routes.
	resp, err := hs.Client().Get(hs.URL + "/reports")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("GET /reports served")
	}
	resp, err = hs.Client().Post(hs.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("POST /snapshot served")
	}
}
