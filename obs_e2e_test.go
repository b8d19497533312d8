package ldp_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/obs"
	"repro/internal/transport"
)

var updateObsGolden = flag.Bool("update-golden", false, "rewrite the metrics catalog goldens")

// scrape fetches and parses a server's /metrics, returning both the raw text
// (for lint and golden catalogs) and the parsed samples.
func scrape(t *testing.T, baseURL string) (string, []obs.Sample) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return string(raw), samples
}

// familyCatalog reduces an exposition to its sorted "name kind" catalog —
// the stable surface a dashboard is built against.
func familyCatalog(text string) string {
	var fams []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, rest)
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "\n") + "\n"
}

// familySeries groups an exposition's samples by the family its "# TYPE"
// line declares, _bucket/_sum/_count lines under their histogram.
func familySeries(t *testing.T, text string) map[string]map[string]float64 {
	t.Helper()
	samples, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	fams := map[string]map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams[strings.Fields(rest)[0]] = map[string]float64{}
		}
	}
	for _, s := range samples {
		fam := s.Name
		if _, ok := fams[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if f, cut := strings.CutSuffix(s.Name, suffix); cut {
					fam = f
					break
				}
			}
		}
		if series, ok := fams[fam]; ok {
			series[s.Name+s.Labels] = s.Value
		}
	}
	return fams
}

// checkFamiliesMove requires every family served after a scripted scenario
// to have moved since the scrape before it — some series changed value or
// appeared — unless idle names it with the reason it cannot move there. A
// listed family that moves, or one no longer served, fails too, so the list
// stays true.
func checkFamiliesMove(t *testing.T, before, after string, idle map[string]string) {
	t.Helper()
	was, now := familySeries(t, before), familySeries(t, after)
	for fam, series := range now {
		reason, listed := idle[fam]
		switch moved := !maps.Equal(was[fam], series); {
		case !moved && !listed:
			t.Errorf("%s did not move under the scripted traffic: make it move, or list it idle with the reason", fam)
		case moved && listed:
			t.Errorf("%s is listed idle (%s) but moved: take it off the list", fam, reason)
		}
	}
	for fam := range idle {
		if _, ok := now[fam]; !ok {
			t.Errorf("the idle list names %s, which is not served", fam)
		}
	}
}

func checkCatalogGolden(t *testing.T, name, text string) {
	t.Helper()
	if problems := obs.Lint(text); len(problems) != 0 {
		t.Errorf("metric naming lint: %s", strings.Join(problems, "; "))
	}
	got := familyCatalog(text)
	path := filepath.Join("testdata", name)
	if *updateObsGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric family catalog drifted from %s — a dashboard-breaking change; update the golden deliberately if intended\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The collector service's /metrics is a complete, lint-clean, golden-pinned
// catalog, and every family it serves moves under a scripted scenario —
// ingest, a replayed keyed batch, a refused frame, queries, a checkpoint —
// but the ones listed idle with their reason; the core series read exact
// values.
func TestCollectorServiceMetrics(t *testing.T) {
	const domain, total = 16, 60
	w := ldp.Histogram(domain)
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	before, _ := scrape(t, hs.URL)

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(10),
		ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % domain}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcol.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rcol.Snap(ctx); err != nil {
		t.Fatal(err)
	}
	// The rest of the scripted traffic: a checkpoint, then a keyed batch
	// retried once (one replay, and WAL lag past the checkpoint), a frame
	// that does not decode, and the same query twice (one estimator build,
	// one hit).
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	keyed := []ldp.Report{{Index: 1}, {Index: 2}, {Index: 3}}
	for range 2 {
		if status, _ := postFrame(t, hs, "obs-keyed", keyed); status != http.StatusOK {
			t.Fatalf("keyed batch = %d, want 200", status)
		}
	}
	if status, _ := postBody(t, hs, "", []byte("not a frame")); status != http.StatusBadRequest {
		t.Fatalf("garbage frame = %d, want 400", status)
	}
	qc, err := transport.NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		q := transport.QueryRequest{Workload: "Histogram", Domain: domain, Digest: ldp.WorkloadDigest(w)}
		if _, err := qc.PostQuery(ctx, q, func(transport.QueryRow) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	text, samples := scrape(t, hs.URL)
	checkCatalogGolden(t, "metrics_catalog_collector.golden", text)
	checkFamiliesMove(t, before, text, map[string]string{
		"ldp_build_info":                  "pinned at startup",
		"ldp_recovery_restored":           "pinned at open; only a restart moves it",
		"ldp_recovery_replayed_records":   "pinned at open; only a restart moves it",
		"ldp_recovery_replayed_reports":   "pinned at open; only a restart moves it",
		"ldp_recovery_dropped_tail_bytes": "pinned at open; only a restart moves it",
	})

	for _, probe := range []struct {
		name, labels string
		want         float64
	}{
		{"ldp_collector_ingest_reports_total", "", total + 3},
		{"ldp_collector_reports", "", total + 3},
		{"ldp_build_info", "", 1},
	} {
		if got, ok := obs.SampleValue(samples, probe.name, probe.labels); !ok || got != probe.want {
			t.Errorf("%s = %v (found=%v), want %v", probe.name, got, ok, probe.want)
		}
	}
	// Moving series where the exact value is load-dependent: just non-zero.
	for _, name := range []string{
		"ldp_http_requests_total",
		"ldp_wal_append_duration_seconds_count",
		"ldp_wal_commit_bytes_count",
	} {
		if got, ok := obs.SampleValue(samples, name, ""); !ok || got <= 0 {
			t.Errorf("%s = %v (found=%v), want > 0", name, got, ok)
		}
	}
}

// The router's /metrics mirrors the same guarantees for the fan-in tier:
// lint-clean golden catalog, every family moving under routed traffic but the
// ones listed idle, and exact fleet membership, probe and merge values.
func TestFleetServerMetrics(t *testing.T) {
	const domain, total = 16, 40
	_, fs, hs, _, agg, _ := routerFixture(t, domain, 3)
	before, _ := scrape(t, hs.URL)
	fs.Probe(context.Background()) // populate the probe-outcome and per-shard gauge families

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteBatch(8),
		ldp.WithRemoteHTTPClient(hs.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if err := rcol.Ingest(ctx, ldp.Report{Index: i % domain}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcol.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rcol.Snap(ctx); err != nil {
		t.Fatal(err)
	}

	text, samples := scrape(t, hs.URL)
	checkCatalogGolden(t, "metrics_catalog_router.golden", text)
	checkFamiliesMove(t, before, text, map[string]string{
		"ldp_build_info":                  "pinned at startup",
		"ldp_fleet_members":               "every shard registers before the first scrape, and none leaves",
		"ldp_fleet_ready_members":         "every shard registers ready before the first scrape, and stays ready",
		"ldp_fleet_coverage_stale":        "every shard answers, so no merge serves a stale one",
		"ldp_fleet_coverage_missing":      "every shard answers, so no merge misses one",
		"ldp_fleet_forward_retries_total": "no forward fails, so none is retried",
	})

	for _, probe := range []struct {
		name, labels string
		want         float64
	}{
		{"ldp_fleet_members", "", 3},
		{"ldp_fleet_ready_members", "", 3},
		{"ldp_fleet_probes_total", `outcome="ready"`, 3},
		{"ldp_fleet_shard_ready", "", 3},
		{"ldp_fleet_coverage_fresh", "", 3},
		{"ldp_fleet_merges_total", `outcome="complete"`, 1},
		{"ldp_build_info", "", 1},
	} {
		if got, ok := obs.SampleValue(samples, probe.name, probe.labels); !ok || got != probe.want {
			t.Errorf("%s{%s} = %v (found=%v), want %v", probe.name, probe.labels, got, ok, probe.want)
		}
	}
	if got, ok := obs.SampleValue(samples, "ldp_http_requests_total", `endpoint="reports"`); !ok || got <= 0 {
		t.Errorf(`ldp_http_requests_total{endpoint="reports"} = %v (found=%v), want > 0`, got, ok)
	}
}

// syncBuffer makes a bytes.Buffer safe as an slog sink under concurrent
// request handling.
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

// One trace id follows one ingest through every tier: set on the client's
// context, stamped on the wire by the transport, routed through the fleet
// forward, and logged by both the router's and the shard's request lines.
func TestRequestIDPropagatesClientRouterShard(t *testing.T) {
	const domain = 8
	w := ldp.Histogram(domain)
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(domain, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}

	var shardLog, routerLog syncBuffer
	debugJSON := func(sink *syncBuffer) *slog.Logger {
		return slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg),
		ldp.WithServiceLogger(debugJSON(&shardLog)))
	if err != nil {
		t.Fatal(err)
	}
	shardSrv := httptest.NewServer(svc.Handler())
	defer shardSrv.Close()

	fleet, err := ldp.NewFleet(agg, w, ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ctx := context.Background()
	if err := fleet.Register(ctx, shardSrv.URL); err != nil {
		t.Fatal(err)
	}
	fs, err := ldp.NewFleetServer(fleet, ldp.WithServiceLogger(debugJSON(&routerLog)))
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(fs.Handler())
	defer routerSrv.Close()

	rcol, err := ldp.NewRemoteCollector(routerSrv.URL, agg, ldp.WithRemoteBatch(4),
		ldp.WithRemoteHTTPClient(routerSrv.Client()),
		ldp.WithRemoteRetryPolicy(fastRetryPolicy(2, nil)))
	if err != nil {
		t.Fatal(err)
	}

	const traceID = "deadbeefcafe0042"
	tctx := obs.WithRequestID(ctx, traceID)
	for i := 0; i < 4; i++ {
		if err := rcol.Ingest(tctx, ldp.Report{Index: i % domain}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcol.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("%q:%q", "request_id", traceID)
	for _, tier := range []struct {
		name string
		log  *syncBuffer
	}{{"router", &routerLog}, {"shard", &shardLog}} {
		if !strings.Contains(tier.log.String(), want) {
			t.Errorf("%s log has no request line carrying the client's trace id %s:\n%s",
				tier.name, traceID, tier.log.String())
		}
	}
}
