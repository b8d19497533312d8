package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
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

// TestFanInMatchesServer: over one httptest shard, fan-in mode prints what
// -server mode prints under its coverage lines, and it refuses a confidence
// level outside (0,1) as -server mode does, instead of printing NaN or
// infinite intervals.
func TestFanInMatchesServer(t *testing.T) {
	const n = 16
	o, err := ldp.OracleByName("OUE", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(o, ldp.Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reports := make([]ldp.Report, 1000)
	for i := range reports {
		if reports[i], err = o.Randomize(rng.Intn(n), rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.IngestBatch(reports); err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(o))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()

	ctx, names := context.Background(), []string{"Histogram", "Prefix"}
	fanInPass := func(level float64, variance bool, out io.Writer) error {
		f, err := newFanIn(config{servers: hs.URL, level: level, variance: variance, timeout: time.Minute}, o, names, out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return f.pass(ctx)
	}
	header := fmt.Sprintf("# coverage: 1/1 shards, 1000 reports (epoch %[2]d)\n# shard %[1]s: fresh, 1000 reports (epoch %[2]d)\n", hs.URL, col.Snap().Epoch())
	for _, level := range []float64{0, 0.95} {
		var server, fanIn bytes.Buffer
		if err := queryServer(ctx, &server, hs.URL, names, level, true, true, 0); err != nil {
			t.Fatal(err)
		}
		if err := fanInPass(level, true, &fanIn); err != nil {
			t.Fatal(err)
		}
		if got, want := fanIn.String(), header+server.String(); got != want {
			t.Errorf("level %v: fan-in printed\n%s\n-server printed\n%s", level, got, want)
		}
	}
	for _, level := range []float64{1.5, 1, -0.5} {
		var out bytes.Buffer
		if err := fanInPass(level, false, &out); err == nil {
			t.Errorf("level %v: fan-in answered instead of refusing:\n%s", level, out.String())
		}
	}
}

// -server mode learns the domain for its digest checks from one /healthz per
// run, however many workloads it answers.
func TestQueryServerOneHealthCheck(t *testing.T) {
	const n = 16
	o, err := ldp.OracleByName("OUE", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(o, ldp.Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(o))
	if err != nil {
		t.Fatal(err)
	}
	var healthz atomic.Int32
	handler := svc.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			healthz.Add(1)
		}
		handler.ServeHTTP(rw, req)
	}))
	defer hs.Close()
	names := []string{"Histogram", "Prefix", "AllRange"}
	if err := queryServer(context.Background(), io.Discard, hs.URL, names, 0, false, true, 0); err != nil {
		t.Fatal(err)
	}
	if got := healthz.Load(); got != 1 {
		t.Fatalf("%d workloads cost %d /healthz requests, want 1", len(names), got)
	}
}

// The flags of one mode are refused in the other, and -watch with -as-of,
// before anything touches the network.
func TestParseArgsRefusesFlagModes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		refusal string // "" = accepted
	}{
		{[]string{"-server", "http://a", "-workloads", "Prefix", "-level", "0.9", "-head", "3"}, ""},
		{[]string{"-servers", "http://a,http://b", "-mech", "oue", "-workloads", "Prefix", "-watch", "1s", "-window", "4", "-quorum", "2", "-no-stale", "-drift", "3"}, ""},
		{[]string{"-servers", "http://a", "-mech", "oue", "-as-of", "7", "-window", "2"}, ""},
		{[]string{"-workloads", "Prefix"}, "set exactly one of -server"},
		{[]string{"-server", "http://a", "-servers", "http://b"}, "set exactly one of -server"},
		{[]string{"-server", "http://a", "-as-of", "3"}, "-as-of: fan-in mode"},
		{[]string{"-server", "http://a", "-mech", "oue", "-n", "8"}, "-mech, -n: fan-in mode"},
		{[]string{"-server", "http://a", "-watch", "1s", "-window", "2", "-quorum", "1", "-no-stale", "-drift", "0"}, "-drift, -no-stale, -quorum, -watch, -window: fan-in mode"},
		{[]string{"-servers", "http://a", "-mech", "oue", "-watch", "1s", "-as-of", "3"}, "-watch re-answers"},
	} {
		_, err := parseArgs(tc.args)
		switch {
		case tc.refusal == "" && err != nil:
			t.Errorf("%q: refused: %v", tc.args, err)
		case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
			t.Errorf("%q: err = %v, want a refusal containing %q", tc.args, err, tc.refusal)
		}
	}
}

// -window N prints the rows printRows prints over the explicit Diff of the
// live snapshot and the retained one N epochs back, with the window's report
// count in the footer.
func TestWindowRowsEqualDiffRows(t *testing.T) {
	const n = 16
	o, err := ldp.OracleByName("OUE", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := ldp.Histogram(n)
	col, err := ldp.NewCollector(o, w, 0, ldp.WithDurability(t.TempDir(), ldp.CheckpointEvery(0), ldp.HistoryKeep(4)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	rng := rand.New(rand.NewSource(2))
	ingest := func(count int) {
		reports := make([]ldp.Report, count)
		for i := range reports {
			if reports[i], err = o.Randomize(rng.Intn(n/2), rng); err != nil {
				t.Fatal(err)
			}
		}
		if err := col.IngestBatch(reports); err != nil {
			t.Fatal(err)
		}
	}
	ingest(300)
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := col.Snap()
	ingest(200)
	ingest(100)
	live := col.Snap()
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(o))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)

	diff, err := live.Diff(base)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ldp.NewEstimator(o, w)
	if err != nil {
		t.Fatal(err)
	}
	const level = 0.95
	var want bytes.Buffer
	if err := printRows(&want, est, diff, level, true, 0); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := config{servers: hs.URL, level: level, variance: true, window: live.Epoch() - base.Epoch(), timeout: time.Minute}
	f, err := newFanIn(c, o, []string{"Histogram"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pass(context.Background()); err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			rows.WriteString(line)
		}
	}
	if rows.String() != want.String() {
		t.Errorf("window rows\n%s\nwant printRows over the Diff\n%s", rows.String(), want.String())
	}
	for _, line := range []string{
		fmt.Sprintf("# window (%d, %d]: baseline coverage 1/1 shards, 300 reports\n", base.Epoch(), live.Epoch()),
		fmt.Sprintf("# Histogram: %d queries over 300 reports (epoch %d)\n", n, live.Epoch()),
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

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

// newFed sets up a Histogram fan-in over the given endpoints at the flags'
// defaults (plus quorum), with deterministic, non-sleeping retries and
// captured output.
func newFed(t *testing.T, agg ldp.Aggregator, endpoints []string, out, errw io.Writer, quorum int) *fanIn {
	t.Helper()
	c := config{servers: strings.Join(endpoints, ","), drift: 10, quorum: quorum, timeout: 5 * time.Second}
	f, err := newFanIn(c, agg, []string{"Histogram"}, out, errw, ldp.WithFleetRetryPolicy(ldp.RetryPolicy{
		MaxAttempts:    1,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     time.Millisecond,
		Sleep:          func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}))
	if err != nil {
		t.Fatal(err)
	}
	return f
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
	f := newFed(t, agg, []string{shards[0].hs.URL, shards[1].hs.URL, shards[2].hs.URL}, &out, &errw, 0)
	if err := f.pass(context.Background()); err != nil {
		t.Fatalf("merge with one dead shard: %v", err)
	}
	if !strings.Contains(out.String(), "# coverage: 2/3 shards (1 missing), 40 reports") {
		t.Fatalf("output lacks the degraded coverage line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# shard "+shards[2].hs.URL+": missing") {
		t.Fatalf("per-shard lines lack the missing shard:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "partial merge, coverage 2/3 shards") {
		t.Fatalf("stderr lacks the partial-merge warning:\n%s", errw.String())
	}

	// The same outage under a quorum of 3 refuses the estimate instead.
	var qout, qerrw syncBuffer
	fq := newFed(t, agg, []string{shards[0].hs.URL, shards[1].hs.URL, shards[2].hs.URL}, &qout, &qerrw, 3)
	err := fq.pass(context.Background())
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
	f := newFed(t, agg, []string{shards[0].hs.URL, shards[1].hs.URL}, &out, &errw, 0)
	// Baseline pass: both fresh, and the fleet now holds last-good snapshots.
	if err := f.pass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# coverage: 2/2 shards, 20 reports") {
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
		return strings.Contains(out.String(), "# coverage: 2/2 shards (1 stale), 25 reports")
	})

	// The shard heals and more reports land: a complete pass follows.
	shards[1].down.Store(false)
	seed(t, shards[1], domain, 5)
	waitFor(t, "a complete watch pass after recovery", func() bool {
		return strings.Contains(out.String(), "# coverage: 2/2 shards, 30 reports")
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
	f := newFed(t, agg, []string{good.hs.URL, hs.URL}, &out, &errw, 0)
	if err := f.pass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# coverage: 2/2 shards, 20 reports") {
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
	if err := f.pass(ctx); err != nil {
		t.Fatalf("pass with a regressed shard should degrade, not fail: %v", err)
	}
	if !strings.Contains(errw.String(), "epoch regressed from 5") {
		t.Fatalf("stderr lacks the regression log:\n%s", errw.String())
	}
	// The degraded pass merged the shard's last ACCEPTED snapshot (count
	// 10), refusing the undercounting regressed one (count 3).
	if !strings.Contains(out.String(), "# coverage: 2/2 shards (1 stale), 20 reports") {
		t.Fatalf("output lacks the stale-fallback pass:\n%s", out.String())
	}
}
