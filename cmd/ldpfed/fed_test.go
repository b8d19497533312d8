package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// syncBuffer is a concurrency-safe output sink: the watch loop writes from
// its goroutine while the test polls the accumulated text.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// fedShard is a controllable in-process shard (real collector, framed
// transport) with a down switch that aborts connections mid-flight.
type fedShard struct {
	col  *ldp.Collector
	hs   *httptest.Server
	down atomic.Bool
}

func newFedShard(t *testing.T, agg ldp.Aggregator, w ldp.Workload) *fedShard {
	t.Helper()
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg))
	if err != nil {
		t.Fatal(err)
	}
	handler := svc.Handler()
	sh := &fedShard{col: col}
	sh.hs = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if sh.down.Load() {
			panic(http.ErrAbortHandler)
		}
		handler.ServeHTTP(rw, req)
	}))
	t.Cleanup(sh.hs.Close)
	return sh
}

// newFed wires a fed pipeline over the given endpoints with deterministic,
// non-sleeping retries and captured output.
func newFed(t *testing.T, agg ldp.Aggregator, w ldp.Workload, endpoints []string, out, errw *syncBuffer, opts ...ldp.FleetOption) *fed {
	t.Helper()
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	base := []ldp.FleetOption{ldp.WithFleetRetryPolicy(ldp.RetryPolicy{
		MaxAttempts:    1,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     time.Millisecond,
		Multiplier:     1,
		Sleep:          func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})}
	fleet, err := ldp.NewFleet(agg, w, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range endpoints {
		if err := fleet.Register(context.Background(), ep); err != nil {
			t.Fatalf("register %s: %v", ep, err)
		}
	}
	return &fed{
		fleet: fleet, est: est, info: ldp.MechanismInfoOf(agg),
		level: 0, drift: 10, timeout: 5 * time.Second,
		out: out, errw: errw,
		lastEpochs: make(map[string]uint64),
	}
}

func fedMechanism(t *testing.T, domain int) (ldp.Aggregator, ldp.Workload) {
	t.Helper()
	w := ldp.Histogram(domain)
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	return agg, w
}

func seed(t *testing.T, sh *fedShard, domain, n int) {
	t.Helper()
	reports := make([]ldp.Report, n)
	for i := range reports {
		reports[i] = ldp.Report{Index: i % domain}
	}
	if err := sh.col.IngestBatch(reports); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A shard that is down at the very first poll does not kill the fan-in: it
// registers as a coverage gap, the other shards merge, and the output says
// exactly what the estimate covers (2/3, one missing).
func TestFedShardDownAtFirstPoll(t *testing.T) {
	const domain = 8
	agg, w := fedMechanism(t, domain)
	shards := []*fedShard{newFedShard(t, agg, w), newFedShard(t, agg, w), newFedShard(t, agg, w)}
	seed(t, shards[0], domain, 20)
	seed(t, shards[1], domain, 20)
	seed(t, shards[2], domain, 20) // absorbed, but never observable
	shards[2].down.Store(true)

	var out, errw syncBuffer
	f := newFed(t, agg, w, []string{shards[0].hs.URL, shards[1].hs.URL, shards[2].hs.URL}, &out, &errw)
	if err := f.mergeAndReport(context.Background()); err != nil {
		t.Fatalf("merge with one dead shard: %v", err)
	}
	if !strings.Contains(out.String(), "merged coverage 2/3 shards (1 missing): 40 reports") {
		t.Fatalf("output lacks the degraded coverage line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("per-shard table lacks the missing row:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "partial merge, coverage 2/3 shards") {
		t.Fatalf("stderr lacks the partial-merge warning:\n%s", errw.String())
	}

	// The same outage under a quorum of 3 refuses the estimate instead.
	var qout, qerrw syncBuffer
	fq := newFed(t, agg, w, []string{shards[0].hs.URL, shards[1].hs.URL, shards[2].hs.URL}, &qout, &qerrw,
		ldp.WithFleetQuorum(3))
	err := fq.mergeAndReport(context.Background())
	if err == nil || !strings.Contains(err.Error(), "below the quorum") {
		t.Fatalf("below-quorum merge = %v, want a quorum refusal", err)
	}
}

// A shard that flaps mid-watch degrades that pass (stale fallback) and the
// watcher keeps running; when the shard returns and new reports land, a
// later pass is complete again.
func TestFedFlappingShardMidWatch(t *testing.T) {
	const domain = 8
	agg, w := fedMechanism(t, domain)
	shards := []*fedShard{newFedShard(t, agg, w), newFedShard(t, agg, w)}
	seed(t, shards[0], domain, 10)
	seed(t, shards[1], domain, 10)

	var out, errw syncBuffer
	f := newFed(t, agg, w, []string{shards[0].hs.URL, shards[1].hs.URL}, &out, &errw)
	// Baseline pass: both fresh, and the fleet now holds last-good snapshots.
	if err := f.mergeAndReport(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "merged coverage 2/2 shards: 20 reports") {
		t.Fatalf("baseline output:\n%s", out.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.watch(ctx, 3*time.Millisecond)
	}()

	// The shard flaps down; new reports land on the healthy one. The next
	// passes merge degraded — and the watcher must survive them.
	shards[1].down.Store(true)
	seed(t, shards[0], domain, 5)
	waitFor(t, "a degraded (stale) watch pass", func() bool {
		return strings.Contains(out.String(), "merged coverage 2/2 shards (1 stale): 25 reports")
	})

	// The shard heals and more reports land: a complete pass follows.
	shards[1].down.Store(false)
	seed(t, shards[1], domain, 5)
	waitFor(t, "a complete watch pass after recovery", func() bool {
		return strings.Contains(out.String(), "merged coverage 2/2 shards: 30 reports")
	})

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch loop did not exit on context cancellation")
	}
}

// scriptBackend is a hand-driven transport backend whose epoch the test can
// regress — the signature of a shard restarting without recovering state.
type scriptBackend struct {
	mu    sync.Mutex
	state []float64
	count float64
	epoch uint64
}

func (b *scriptBackend) IngestBatch(reports []protocol.Report, key string) error { return nil }
func (b *scriptBackend) Durability() (transport.DurabilityHealth, bool) {
	return transport.DurabilityHealth{}, false
}
func (b *scriptBackend) SnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	return transport.Snapshot{}, &transport.EpochNotRetainedError{Requested: epoch}
}
func (b *scriptBackend) Query(transport.QueryRequest, io.Writer) error {
	return errors.New("the scripted backend serves no queries")
}
func (b *scriptBackend) SnapshotEpoch() ([]float64, float64, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.state...), b.count, b.epoch
}
func (b *scriptBackend) CountEpoch() (float64, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count, b.epoch
}
func (b *scriptBackend) set(count float64, epoch uint64) {
	b.mu.Lock()
	b.count, b.epoch = count, epoch
	b.mu.Unlock()
}

// An epoch regression mid-watch — a shard restarted and lost state — is
// logged and the pass degrades to the shard's last accepted snapshot; the
// watcher retries instead of dying or accepting the undercount.
func TestFedEpochRegressionMidWatch(t *testing.T) {
	const domain = 8
	agg, w := fedMechanism(t, domain)
	info := ldp.MechanismInfoOf(agg)

	good := newFedShard(t, agg, w)
	seed(t, good, domain, 10)

	// The regressing shard: a scripted backend behind the real transport.
	sb := &scriptBackend{state: make([]float64, agg.StateLen())}
	sb.set(10, 5)
	ts, err := transport.NewServer(sb, info)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(ts.Handler())
	t.Cleanup(hs.Close)

	var out, errw syncBuffer
	f := newFed(t, agg, w, []string{good.hs.URL, hs.URL}, &out, &errw)
	if err := f.mergeAndReport(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "merged coverage 2/2 shards: 20 reports") {
		t.Fatalf("baseline output:\n%s", out.String())
	}

	// The shard "restarts without its state": epoch falls 5 → 2. The cheap
	// watch round sees a changed epoch and triggers a pass — exactly what a
	// ticking watcher would do.
	sb.set(3, 2)
	ctx := context.Background()
	if !f.epochsAdvanced(ctx) {
		t.Fatal("epoch change did not trigger a watch pass")
	}
	if err := f.mergeAndReport(ctx); err != nil {
		t.Fatalf("pass with a regressed shard should degrade, not fail: %v", err)
	}
	if !strings.Contains(errw.String(), "epoch regressed from 5") {
		t.Fatalf("stderr lacks the regression log:\n%s", errw.String())
	}
	// The degraded pass merged the shard's last ACCEPTED snapshot (count
	// 10), refusing the undercounting regressed one (count 3).
	if !strings.Contains(out.String(), "merged coverage 2/2 shards (1 stale): 20 reports") {
		t.Fatalf("output lacks the stale-fallback pass:\n%s", out.String())
	}
}
