package ldp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/chaos"
)

// routerFixture stands up n shards, a fleet over them, and the router tier.
func routerFixture(t *testing.T, domain, n int, opts ...ldp.FleetOption) (*ldp.Fleet, *ldp.FleetServer, *httptest.Server, []*fleetShard, ldp.Aggregator, ldp.Workload) {
	t.Helper()
	agg, w, shards := fleetFixture(t, domain, n)
	base := []ldp.FleetOption{ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil))}
	f, err := ldp.NewFleet(agg, w, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, context.Background(), f, shards)
	fs, err := ldp.NewFleetServer(f)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fs.Handler())
	t.Cleanup(hs.Close)
	return f, fs, hs, shards, agg, w
}

// The router speaks the shard protocol: an unmodified RemoteCollector
// pointed at it verifies the mechanism identity, ships keyed batches that
// land exactly once across the shards, and reads the merged snapshot back.
func TestRouterTransparentToRemoteCollector(t *testing.T) {
	const domain, total = 16, 120
	_, _, hs, shards, agg, _ := routerFixture(t, domain, 3)

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(10),
		ldp.WithRemoteHTTPClient(hs.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rcol.Verify(ctx); err != nil {
		t.Fatalf("identity handshake through the router: %v", err)
	}
	for i := 0; i < total; i++ {
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % domain}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if err := rcol.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	snap, err := rcol.Snap(ctx)
	if err != nil {
		t.Fatalf("snap through the router: %v", err)
	}
	if snap.Count() != total {
		t.Fatalf("merged count %v, want %v", snap.Count(), total)
	}
	var mass, sharded float64
	for _, v := range snap.State() {
		mass += v
	}
	if mass != total {
		t.Fatalf("merged mass %v, want %v (loss or duplication)", mass, total)
	}
	routed := 0
	for _, sh := range shards {
		sharded += sh.col.Count()
		if sh.col.Count() > 0 {
			routed++
		}
	}
	if sharded != total {
		t.Fatalf("shards hold %v total, want %v", sharded, total)
	}
	if routed < 2 {
		t.Fatalf("only %d shard(s) received traffic; routing never rotated", routed)
	}
}

// postFrame POSTs a body of one frame per reports slice under the given
// idempotency key and returns the HTTP status plus decoded accepted count.
func postFrame(t *testing.T, hs *httptest.Server, key string, frames ...[]ldp.Report) (int, int) {
	t.Helper()
	var buf bytes.Buffer
	for _, reports := range frames {
		if err := ldp.EncodeReportsFrame(&buf, reports); err != nil {
			t.Fatal(err)
		}
	}
	status, raw := postBody(t, hs, key, buf.Bytes())
	var body struct {
		Accepted int `json:"accepted"`
	}
	_ = json.Unmarshal(raw, &body)
	return status, body.Accepted
}

// postBody POSTs raw bytes to /reports and returns the status and raw answer.
func postBody(t *testing.T, hs *httptest.Server, key string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/reports", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set(ldp.IdempotencyKeyHeader, key)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// A client retry of a keyed batch must land on the SAME shard the first
// attempt was routed to, where the idempotency cache replays it — the
// binding is what keeps exactly-once across the router.
func TestRouterKeyStickyReplay(t *testing.T) {
	const domain = 8
	_, _, hs, shards, _, _ := routerFixture(t, domain, 3)

	reports := []ldp.Report{{Index: 1}, {Index: 2}, {Index: 3}}
	if status, accepted := postFrame(t, hs, "key-A", reports); status != http.StatusOK || accepted != 3 {
		t.Fatalf("first keyed POST = (%d, %d), want (200, 3)", status, accepted)
	}
	// The same key again — a client retry after a lost response — replays.
	for i := 0; i < 3; i++ {
		if status, accepted := postFrame(t, hs, "key-A", reports); status != http.StatusOK || accepted != 3 {
			t.Fatalf("retry %d = (%d, %d), want replayed (200, 3)", i, status, accepted)
		}
	}
	var total float64
	for _, sh := range shards {
		total += sh.col.Count()
	}
	if total != 3 {
		t.Fatalf("shards absorbed %v reports across 4 sends of one key, want exactly 3", total)
	}
}

// A request the shard will not deduplicate must not be re-POSTed by the
// router after an ambiguous failure. The shard absorbs every POST /reports
// and loses the response (chaos DropAfter: 1), so under the 4-attempt
// forward policy a router that retried would leave four copies on the shard.
// Unkeyed and over-long-key requests are forwarded once and surface the
// retryable 503; an over-long key is also never bound, so a binding log that
// could not even encode it stays empty instead of refusing the request
// forever.
func TestRouterNonIdempotentForwardedOnce(t *testing.T) {
	const domain = 8
	reports := []ldp.Report{{Index: 1}, {Index: 2}, {Index: 3}}
	for _, tc := range []struct {
		name    string
		key     string
		bindLog bool
	}{
		{"unkeyed", "", false},
		{"key-100-bytes", strings.Repeat("k", 100), false},
		{"key-300-bytes-binding-log", strings.Repeat("k", 300), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []ldp.FleetOption{ldp.WithFleetRetryPolicy(fastRetryPolicy(4, nil))}
			logPath := filepath.Join(t.TempDir(), "bindings.log")
			if tc.bindLog {
				opts = append(opts, ldp.WithFleetBindingLog(logPath))
			}
			f, _, hs, shards, _, _ := routerFixture(t, domain, 1, opts...)
			t.Cleanup(func() { f.Close() })
			sh := shards[0]
			lossy := chaos.New(sh.svc.Handler(), chaos.Plan{DropAfter: 1}, 1)
			sh.reportsVia.Store(lossy)

			status, _ := postFrame(t, hs, tc.key, reports)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want the retryable 503 of an ambiguous forward", status)
			}
			if got := lossy.Stats().DropsAfter; got != 1 {
				t.Fatalf("router POSTed the batch %d times, want exactly 1", got)
			}
			if got := sh.col.Count(); got != float64(len(reports)) {
				t.Fatalf("shard holds %v reports, want exactly one batch of %d", got, len(reports))
			}
			if tc.bindLog {
				if st, err := os.Stat(logPath); err != nil || st.Size() != 0 {
					t.Fatalf("binding log = (%v, %v), want present and empty: an over-long key is never bound", st, err)
				}
			}
		})
	}
}

// A client's malformed batches are not the shard's fault. The shard answers
// each with a definitive 400; that is a healthy shard talking, and must not
// count against its breaker — otherwise FailureThreshold bad batches from one
// misconfigured client gate the fleet's only shard out of routing and the next
// valid POST fails "no ready shards". Probes run alongside, as they do in a
// serving router.
func TestRouterClientErrorsDoNotTripBreaker(t *testing.T) {
	const domain, threshold = 8, 3
	f, _, hs, shards, _, _ := routerFixture(t, domain, 1,
		ldp.WithFleetBreakerPolicy(ldp.BreakerPolicy{FailureThreshold: threshold, Cooldown: time.Hour}))
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*threshold; i++ {
			f.Probe(ctx)
		}
	}()
	for i := 0; i <= threshold; i++ {
		status, accepted := postFrame(t, hs, fmt.Sprintf("bad-%d", i), []ldp.Report{{Index: 9999}})
		if status != http.StatusBadRequest || accepted != 0 {
			t.Fatalf("malformed batch %d = (%d, %d), want the shard's (400, 0) relayed", i, status, accepted)
		}
	}
	<-done
	if ms := f.Members(); ms[0].Breaker != "closed" || !ms[0].Ready {
		t.Fatalf("member after %d client errors = %+v, want breaker closed and ready", threshold+1, ms[0])
	}
	if status, accepted := postFrame(t, hs, "good", []ldp.Report{{Index: 1}, {Index: 2}}); status != http.StatusOK || accepted != 2 {
		t.Fatalf("valid batch after the client errors = (%d, %d), want (200, 2)", status, accepted)
	}
	if got := shards[0].col.Count(); got != 2 {
		t.Fatalf("shard holds %v reports, want 2", got)
	}
	_, samples := scrape(t, hs.URL)
	for _, sm := range samples {
		if sm.Name == "ldp_fleet_breaker_transitions_total" && strings.Contains(sm.Labels, `to="open"`) && sm.Value != 0 {
			t.Fatalf("breaker opened %v time(s) on client errors", sm.Value)
		}
	}
}

// With a shard down, GET /snapshot still answers and the coverage headers
// say how degraded the estimate is; a strict-quorum router refuses with 503
// once coverage falls below the quorum.
func TestRouterSnapshotCoverageHeaders(t *testing.T) {
	const domain = 8
	f, _, hs, shards, _, _ := routerFixture(t, domain, 3)
	ctx := context.Background()

	// Seed and take a baseline so every shard has last-good state.
	fwd := &keyedForwarder{f: f, name: "coverage"}
	for i := 0; i < 12; i++ {
		if err := fwd.forward(ctx, []ldp.Report{{Index: i % domain}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func() *http.Response {
		resp, err := hs.Client().Get(hs.URL + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	resp := get()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ldp.CoverageHeader) != "3/3 shards" {
		t.Fatalf("healthy snapshot = %d %q", resp.StatusCode, resp.Header.Get(ldp.CoverageHeader))
	}

	shards[2].down.Store(true)
	resp = get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded snapshot status %d, want 200 with stale fallback", resp.StatusCode)
	}
	if got := resp.Header.Get(ldp.CoverageHeader); got != "3/3 shards (1 stale)" {
		t.Fatalf("degraded coverage header %q", got)
	}
	if resp.Header.Get(ldp.CoverageStaleHeader) != "1" || resp.Header.Get(ldp.CoverageTotalHeader) != "3" {
		t.Fatalf("numeric coverage headers = stale %q total %q", resp.Header.Get(ldp.CoverageStaleHeader), resp.Header.Get(ldp.CoverageTotalHeader))
	}

	// A strict-quorum, no-stale router refuses below quorum.
	_, _, strictHS, strictShards, _, _ := routerFixture(t, domain, 3,
		ldp.WithFleetStaleFallback(false), ldp.WithFleetQuorum(3))
	strictShards[0].down.Store(true)
	resp2, err := strictHS.Client().Get(strictHS.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("below-quorum snapshot status %d, want 503", resp2.StatusCode)
	}
	if got := resp2.Header.Get(ldp.CoverageHeader); got != "2/3 shards (1 missing)" {
		t.Fatalf("below-quorum coverage header %q", got)
	}
}

// Membership over HTTP: register, list, deregister, and the readiness probe
// reflecting whether enough shards are routable.
func TestRouterMembershipEndpoints(t *testing.T) {
	const domain = 8
	agg, w, shards := fleetFixture(t, domain, 2)
	f, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ldp.NewFleetServer(f)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fs.Handler())
	t.Cleanup(hs.Close)

	// Empty fleet: not ready, ingest 503.
	resp, err := hs.Client().Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet readyz %d, want 503", resp.StatusCode)
	}
	if status, _ := postFrame(t, hs, "k", []ldp.Report{{Index: 0}}); status != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet ingest %d, want 503", status)
	}

	// Register both shards over HTTP.
	for _, sh := range shards {
		body, _ := json.Marshal(map[string]string{"endpoint": sh.hs.URL})
		resp, err := hs.Client().Post(hs.URL+"/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s = %d", sh.hs.URL, resp.StatusCode)
		}
	}
	resp, err = hs.Client().Get(hs.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Members []ldp.MemberState `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Members) != 2 || !listing.Members[0].Ready {
		t.Fatalf("listing = %+v, want 2 ready members", listing.Members)
	}
	if resp, err = hs.Client().Get(hs.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with members %d, want 200", resp.StatusCode)
	}
	// Healthz carries the fleet's identity plus the membership.
	if resp, err = hs.Client().Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Mechanism string            `json:"mechanism"`
		Domain    int               `json:"domain"`
		Members   []ldp.MemberState `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Domain != domain || len(h.Members) != 2 {
		t.Fatalf("healthz = %+v", h)
	}

	// Deregister one; a second delete of the same endpoint is a 404.
	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, hs.URL+"/shards?endpoint="+shards[0].hs.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del(); got != http.StatusOK {
		t.Fatalf("deregister = %d", got)
	}
	if got := del(); got != http.StatusNotFound {
		t.Fatalf("double deregister = %d, want 404", got)
	}

	// Registering a mismatched shard over HTTP is refused with 409.
	otherAgg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 2.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	wrong := newFleetShard(t, otherAgg, w)
	body, _ := json.Marshal(map[string]string{"endpoint": wrong.hs.URL})
	if resp, err = hs.Client().Post(hs.URL+"/shards", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched register = %d, want 409", resp.StatusCode)
	}
}

// Drain: ingest and membership changes refuse 503, the merged snapshot
// stays readable for a final pull.
func TestRouterDrain(t *testing.T) {
	const domain = 8
	f, fs, hs, _, _, _ := routerFixture(t, domain, 2)
	ctx := context.Background()
	fwd := &keyedForwarder{f: f, name: "drain"}
	if err := fwd.forward(ctx, []ldp.Report{{Index: 1}, {Index: 2}}); err != nil {
		t.Fatal(err)
	}
	fs.Drain()
	if status, _ := postFrame(t, hs, "k", []ldp.Report{{Index: 0}}); status != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest = %d, want 503", status)
	}
	resp, err := hs.Client().Get(hs.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining snapshot = %d, want 200 (reads survive)", resp.StatusCode)
	}
	resp, err = hs.Client().Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
}

// An oversized POST body is refused 413 before any forwarding.
func TestRouterBoundsRequestBody(t *testing.T) {
	_, fs, hs, shards, _, _ := routerFixture(t, 8, 1)
	fs.SetMaxRequestBytes(64)
	big := make([]ldp.Report, 4096)
	for i := range big {
		big[i] = ldp.Report{Index: i % 8}
	}
	status, _ := postFrame(t, hs, "big", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", status)
	}
	if shards[0].col.Count() != 0 {
		t.Fatalf("shard absorbed %v from a refused request", shards[0].col.Count())
	}
}

// One way to ingest: the keyed request is the unit on every surface, and the
// three surfaces agree on what it means. The same keyed requests — one frame
// or two — go through an embedded Collector (IngestBatchKeyed per frame), a
// served shard (CollectorService POST /reports), and the router (FleetServer
// POST /reports, which forwards the validated bytes verbatim); on the two
// served surfaces one key is POSTed twice, the way a client retries a lost
// response, and must be answered from the idempotency cache (through the
// router: on the shard the key was bound to). The embedded Collector keeps no
// such cache — there the key is what the write-ahead log records and the
// embedder owns deduplication — so it sees each distinct key once. Every
// surface must end up holding exactly the distinct-key total, in a state
// bit-identical to the serial reference. Both report forms run: an
// index-only strategy, and OUE at a width that is not a multiple of 8.
func TestIngestSurfacesAgree(t *testing.T) {
	const batches, per = 12, 7
	strat, err := ldp.NewAggregator(baselines.RandomizedResponse(16, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	oue, err := ldp.OracleByName("OUE", 19, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, m := range []struct {
		name     string
		agg      ldp.Aggregator
		report   func(i int) ldp.Report
		checkBad ldp.Report // well-framed, refused by the mechanism's Check
	}{
		{"strategy", strat, func(i int) ldp.Report { return ldp.Report{Index: i * i % 16} }, ldp.Report{Index: 9999}},
		{"OUE-n19", oue, func(i int) ldp.Report {
			r, err := oue.Randomize(i%19, rng)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, ldp.Report{Bits: ldp.NewBitVec(24)}},
	} {
		t.Run(m.name, func(t *testing.T) {
			w := ldp.Histogram(m.agg.Domain())
			bindLog := filepath.Join(t.TempDir(), "bindings.log")
			f, err := ldp.NewFleet(m.agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)), ldp.WithFleetBindingLog(bindLog))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			routerShards := []*fleetShard{newFleetShard(t, m.agg, w), newFleetShard(t, m.agg, w), newFleetShard(t, m.agg, w)}
			registerAll(t, context.Background(), f, routerShards)
			fs, err := ldp.NewFleetServer(f)
			if err != nil {
				t.Fatal(err)
			}
			routerHS := httptest.NewServer(fs.Handler())
			defer routerHS.Close()
			served, err := ldp.NewCollector(m.agg, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			shardHS := httptest.NewServer(collectorHandler(t, served, ldp.MechanismInfoOf(m.agg)))
			defer shardHS.Close()
			embedded, err := ldp.NewCollector(m.agg, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref := newSerialRef(m.agg)
			routedCount := func() (n float64) {
				for _, sh := range routerShards {
					n += sh.col.Count()
				}
				return n
			}

			// A structurally malformed body never leaves the router: 400, nothing
			// forwarded, no key bound.
			good := framed(t, []ldp.Report{m.report(0)})
			if status, _ := postBody(t, routerHS, "torn", good[:len(good)-1]); status != http.StatusBadRequest {
				t.Fatalf("torn frame through the router = %d, want 400", status)
			}
			if st, err := os.Stat(bindLog); err != nil || st.Size() != 0 || routedCount() != 0 {
				t.Fatalf("torn frame: binding log (%v, %v), shards hold %v; want nothing bound, nothing forwarded", st, err, routedCount())
			}

			type keyed struct {
				key    string
				frames [][]ldp.Report
			}
			var stream []keyed
			for b := 0; b < batches; b++ {
				reports := make([]ldp.Report, per)
				for i := range reports {
					reports[i] = m.report(b*per + i)
				}
				ref.add(t, reports...)
				kb := keyed{key: fmt.Sprintf("surface-%02d", b), frames: [][]ldp.Report{reports}}
				if b%3 == 0 { // every third request carries its batch as two frames
					kb.frames = [][]ldp.Report{reports[:3], reports[3:]}
				}
				stream = append(stream, kb)
			}
			const replayed = 6 // the (two-frame) request every served surface sees twice

			for _, kb := range stream {
				for _, frame := range kb.frames {
					if err := embedded.IngestBatchKeyed(frame, kb.key); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, hs := range []*httptest.Server{shardHS, routerHS} {
				for i, kb := range stream {
					posts := 1
					if i == replayed {
						posts = 2
					}
					for p := 0; p < posts; p++ {
						if status, accepted := postFrame(t, hs, kb.key, kb.frames...); status != http.StatusOK || accepted != per {
							t.Fatalf("POST %d of key %s to %s = %d, accepted %d; want 200, %d", p+1, kb.key, hs.URL, status, accepted, per)
						}
					}
				}
			}

			// The one behaviour the pass-through router moves, pinned as intended:
			// atomicity is per frame and it is the shard's. A body whose second
			// frame fails Check lands frame 1 and answers the shard's 400 with
			// accepted = len(frame 1) — through the router byte for byte what the
			// same body POSTed straight at a shard answers.
			head := []ldp.Report{m.report(1000), m.report(1001)}
			ref.add(t, head...)
			if err := embedded.IngestBatchKeyed(head, "half"); err != nil {
				t.Fatal(err)
			}
			if err := embedded.IngestBatchKeyed([]ldp.Report{m.checkBad}, "half"); err == nil {
				t.Fatal("embedded collector absorbed a report its mechanism refuses")
			}
			half := append(framed(t, head), framed(t, []ldp.Report{m.checkBad})...)
			shardStatus, shardAnswer := postBody(t, shardHS, "half", half)
			routerStatus, routerAnswer := postBody(t, routerHS, "half", half)
			var ans struct {
				Accepted int    `json:"accepted"`
				Error    string `json:"error"`
			}
			if err := json.Unmarshal(shardAnswer, &ans); err != nil || shardStatus != http.StatusBadRequest || ans.Accepted != len(head) || ans.Error == "" {
				t.Fatalf("shard on a half-valid body = %d %s, want 400 with accepted %d and the Check error", shardStatus, shardAnswer, len(head))
			}
			if routerStatus != shardStatus || !bytes.Equal(routerAnswer, shardAnswer) {
				t.Fatalf("router answered %d %s, a direct POST %d %s; want the shard's answer relayed byte for byte", routerStatus, routerAnswer, shardStatus, shardAnswer)
			}

			want := ref.snap()
			var routed []ldp.Snapshot
			for _, sh := range routerShards {
				routed = append(routed, sh.col.Snap())
			}
			merged, err := ldp.MergeSnapshots(routed...)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]ldp.Snapshot{
				"Collector.IngestBatchKeyed":     embedded.Snap(),
				"CollectorService POST /reports": served.Snap(),
				"FleetServer POST /reports":      merged,
			} {
				if got.Count() != want.Count() {
					t.Errorf("%s: holds %v reports, want the distinct-key total %v", name, got.Count(), want.Count())
				}
				gs, ws := got.State(), want.State()
				for i := range ws {
					if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
						t.Errorf("%s: state[%d] = %v, reference %v", name, i, gs[i], ws[i])
						break
					}
				}
			}
		})
	}
}
