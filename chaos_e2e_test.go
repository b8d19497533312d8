package ldp_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/chaos"
	"repro/internal/loadgen"
)

// The chaos fan-in scenario: 4 shards behind fault-injecting proxies, one of
// them a durable loadgen shard process (served by this binary's
// TestLoadgenShardProcess hook) that is SIGKILLed mid-ingest and restarted
// from its write-ahead log. Sustained keyed ingest runs through a
// Fleet across drops, delays, connection resets, 503 bursts, and truncated
// responses; the acceptance criteria are exactly-once delivery end to end
// (the merged state is bit-identical to a reference collector fed the same
// reports), an honest degraded merge while the killed shard is down
// (coverage 3/4), and a final estimate inside the repo's 6σ statistical
// envelopes.
const (
	chaosDomain = 32
	chaosUsers  = 20000
	chaosBatch  = 125
	chaosEps    = 1.0
)

func TestChaosFanInUnderFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos scenario")
	}
	o, err := ldp.OracleByName("OUE", chaosDomain, chaosEps)
	if err != nil {
		t.Fatal(err)
	}
	w := ldp.Histogram(chaosDomain)

	// Ground truth and the full randomized report stream, fixed seeds.
	x := make([]float64, chaosDomain)
	rng := rand.New(rand.NewSource(42))
	client, err := ldp.NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]ldp.Report, chaosUsers)
	for i := range reports {
		v := rng.Intn(chaosDomain)
		x[v]++
		if reports[i], err = client.Randomize(v, rng); err != nil {
			t.Fatal(err)
		}
	}

	// Shard 0: a separate durable process behind a retargetable proxy —
	// the one that gets SIGKILLed and recovered on a new port; while it is
	// down, requests fail with a retryable 502. Shards 1–3: in-process.
	ctx := context.Background()
	shard0, err := loadgen.StartShard(ctx, loadgen.ShardConfig{
		Mechanism: "oue", Domain: chaosDomain, Epsilon: chaosEps, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shard0.Kill)
	var target0 atomic.Pointer[url.URL]
	retarget0 := func(raw string) {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		target0.Store(u)
	}
	retarget0(shard0.URL())
	dyn := &httputil.ReverseProxy{
		Rewrite:      func(pr *httputil.ProxyRequest) { pr.SetURL(target0.Load()) },
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, _ error) { w.WriteHeader(http.StatusBadGateway) },
	}
	plan := chaos.Plan{
		DropBefore:  0.02, // connection reset before the backend sees the request
		DropAfter:   0.02, // absorbed, response lost — the ambiguous failure
		Truncate:    0.02, // mid-frame response kill
		Unavailable: 0.03, // 503 bursts
		BurstLen:    2,
		Delay:       0.05,
		DelayFor:    time.Millisecond,
	}
	proxies := make([]*chaos.Proxy, 4)
	endpoints := make([]string, 4)
	proxies[0] = chaos.New(dyn, plan, 101)
	hs0 := httptest.NewServer(proxies[0])
	t.Cleanup(hs0.Close)
	endpoints[0] = hs0.URL
	inProc := make([]*fleetShard, 0, 3)
	for i := 1; i < 4; i++ {
		sh := newFleetShard(t, o, w)
		inProc = append(inProc, sh)
		proxies[i] = chaos.New(sh.svc.Handler(), plan, uint64(100+i))
		hs := httptest.NewServer(proxies[i])
		t.Cleanup(hs.Close)
		endpoints[i] = hs.URL
	}

	fleet, err := ldp.NewFleet(o, w,
		ldp.WithFleetRetryPolicy(ldp.RetryPolicy{
			MaxAttempts:       8,
			InitialBackoff:    time.Millisecond,
			MaxBackoff:        20 * time.Millisecond,
			Jitter:            0.5,
			PerAttemptTimeout: 10 * time.Second,
		}),
		ldp.WithFleetUnhealthyAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range endpoints {
		if err := fleet.Register(ctx, ep); err != nil {
			t.Fatalf("register %s: %v", ep, err)
		}
	}
	waitFleet(t, "all 4 shards routable", func() bool {
		fleet.Probe(ctx)
		return fleet.ReadyCount() == 4
	})

	// Phase 1: sustained keyed ingest through the chaos. A batch whose
	// retries exhaust stays pending under its key, bound to its shard —
	// nothing is dropped.
	fwd := &keyedForwarder{f: fleet, name: "chaos"}
	ingest := func(lo, hi int) {
		for i := lo; i < hi; i += chaosBatch {
			end := i + chaosBatch
			if end > hi {
				end = hi
			}
			_ = fwd.forward(ctx, reports[i:end]) // failures stay pending; settle retries them under the same key
			if (i/chaosBatch)%8 == 7 {
				fleet.Probe(ctx)
			}
		}
	}
	ingest(0, 12000)

	// Phase 2: SIGKILL the durable shard mid-stream and keep ingesting. The
	// shard is routable when it dies (an injected 503 may have gated it out a
	// moment ago), so the next batches rotated onto it exhaust their retries
	// and stay pending, bound to it, until it is back.
	waitFleet(t, "all 4 shards routable before the kill", func() bool {
		fleet.Probe(ctx)
		return fleet.ReadyCount() == 4
	})
	shard0.Kill()
	ingest(12000, 16000)

	// The degraded merge: with the killed shard unreachable (and never yet
	// snapshotted, so there is no stale state to fall back on), the merge
	// still answers and says exactly what it covers: 3 of 4 shards.
	fleet.Probe(ctx)
	fleet.Probe(ctx)
	_, cov, err := fleet.Snap(ctx)
	if err != nil {
		t.Fatalf("degraded snap with 1 shard down: %v", err)
	}
	if cov.Merged() != 3 || cov.Total != 4 {
		t.Fatalf("degraded coverage = %s, want 3/4", cov)
	}
	if !strings.HasPrefix(cov.String(), "3/4 shards") {
		t.Fatalf("coverage string = %q", cov.String())
	}

	// Phase 3: crash-recover-rejoin. The restarted process recovers count,
	// epoch, and the idempotency keys of every acknowledged batch from its
	// WAL, so stranded retries replay instead of double-absorbing.
	addr0, err := shard0.Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	retarget0(addr0)
	waitFleet(t, "killed shard to rejoin after recovery", func() bool {
		fleet.Probe(ctx)
		for _, m := range fleet.Members() {
			if m.Endpoint == endpoints[0] {
				return m.Ready
			}
		}
		return false
	})
	ingest(16000, chaosUsers)

	// Phase 4: settle. Chaos off, then retry until every batch is
	// acknowledged — including the ones bound to the killed shard across its
	// restart, which its recovered idempotency keys answer.
	for _, p := range proxies {
		p.SetPlan(chaos.Plan{})
	}
	if len(fwd.pending) == 0 {
		t.Fatal("no batch was ever left pending: the kill stranded nothing, so same-key retry went unexercised")
	}
	var settleErr error
	for attempt := 0; attempt < 30; attempt++ {
		if settleErr = fwd.settle(ctx); settleErr == nil {
			break
		}
		fleet.Probe(ctx)
		time.Sleep(10 * time.Millisecond)
	}
	if err := shard0.Err(); err != nil {
		t.Fatal(err) // a crash or race report the kill schedule did not cause
	}
	if settleErr != nil {
		t.Fatalf("pending batches never settled: %v", settleErr)
	}

	// Acceptance: the chaos actually fired — every proxy injected faults,
	// and every fault category fired somewhere in the fleet.
	var agg chaos.Stats
	for i, p := range proxies {
		st := p.Stats()
		if st.Requests == 0 || st.Requests == st.Forwarded {
			t.Fatalf("proxy %d injected no chaos at all: %+v", i, st)
		}
		agg.DropsBefore += st.DropsBefore
		agg.DropsAfter += st.DropsAfter
		agg.Truncated += st.Truncated
		agg.Unavailable += st.Unavailable
		agg.Delayed += st.Delayed
	}
	if agg.DropsBefore == 0 || agg.DropsAfter == 0 || agg.Truncated == 0 || agg.Unavailable == 0 || agg.Delayed == 0 {
		t.Fatalf("some fault category never fired across the fleet: %+v", agg)
	}
	// ...and exactly-once held through all of it: the merged fleet state is
	// bit-identical to one reference collector fed the same 20k reports
	// (accumulators are order-independent sums, so equality is exact).
	snap, cov, err := fleet.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("final coverage = %s, want 4/4 fresh", cov)
	}
	if snap.Count() != chaosUsers {
		t.Fatalf("merged count %v, want exactly %d (every acknowledged report, no duplicates)", snap.Count(), chaosUsers)
	}
	var perShard float64
	for _, sc := range cov.Shards {
		perShard += sc.Count
	}
	if perShard != chaosUsers {
		t.Fatalf("per-shard counts sum to %v, want %d", perShard, chaosUsers)
	}
	ref := newSerialRef(o)
	ref.add(t, reports...)
	refState, gotState := ref.snap().State(), snap.State()
	for i := range refState {
		if gotState[i] != refState[i] {
			t.Fatalf("state[%d]: fleet %v != reference %v — reports were lost or duplicated", i, gotState[i], refState[i])
		}
	}

	// And the estimate is statistically sound: inside the acceptance
	// envelope the repo's other end-to-end tests use (loadgen.Score).
	e, err := loadgen.Score(o, snap, x)
	if err != nil {
		t.Fatal(err)
	}
	if !e.InEnvelope {
		t.Errorf("estimate outside the envelope: %+v", e)
	}
	t.Logf("chaos totals: %+v / %+v / %+v / %+v", proxies[0].Stats(), proxies[1].Stats(), proxies[2].Stats(), proxies[3].Stats())
}

// waitFleet polls cond with a generous deadline.
func waitFleet(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
