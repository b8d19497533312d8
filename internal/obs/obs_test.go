package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ldp_things_total", "Things.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Value("ldp_things_total"); got != 5 {
		t.Fatalf("registry value = %v, want 5", got)
	}

	g := r.Gauge("ldp_level", "Level.")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("ldp_latency_seconds", "Latency in seconds.", LatencyBounds())
	h.ObserveDuration(3 * time.Microsecond) // bucket le=4e-06
	h.Observe(100)                          // +Inf overflow
	if h.Count() != 2 {
		t.Fatalf("hist count = %d, want 2", h.Count())
	}
	if h.Sum() < 100 || h.Sum() > 100.001 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
}

func TestVecHandlesAndIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ldp_ops_total", "Ops.", "kind")
	a := v.With("read")
	b := v.With("read")
	if a != b {
		t.Fatal("same label values resolved different cells")
	}
	v.With("write").Add(3)
	a.Inc()
	if got := r.Value("ldp_ops_total", "read"); got != 1 {
		t.Fatalf("read = %v, want 1", got)
	}
	if got := r.Value("ldp_ops_total", "write"); got != 3 {
		t.Fatalf("write = %v, want 3", got)
	}
	// Re-registering the same family returns it.
	v2 := r.CounterVec("ldp_ops_total", "Ops.", "kind")
	if v2.With("read") != a {
		t.Fatal("re-registration did not return the existing family")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ldp_x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("ldp_x_total", "X.")
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ldp_hits_total", "Hits.")
	h := r.Histogram("ldp_obs_seconds", "Obs in seconds.", LatencyBounds())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

// The armed hot path — a pre-resolved labeled counter increment, a gauge set
// and a latency-histogram observation, what every instrumented ingest pays —
// must not allocate: instrumentation that starts allocating per request is a
// regression even when no scraper is attached.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("ldp_requests_total", "Requests.", "endpoint", "code").With("reports", "200")
	g := r.Gauge("ldp_level", "Level.")
	h := r.Histogram("ldp_duration_seconds", "Latency in seconds.", LatencyBounds())
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		h.Observe(12e-6)
	})
	if allocs != 0 {
		t.Fatalf("armed counter+gauge+histogram step allocates %v times, want 0", allocs)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ldp_served_total", "Served.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := SampleValue(samples, "ldp_served_total", ""); !ok || v != 1 {
		t.Fatalf("ldp_served_total = %v (found %v), want 1", v, ok)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("ldp_rt_total", "RT.", "endpoint", "code").With("reports", "200").Add(7)
	h := r.Histogram("ldp_rt_seconds", "RT latency in seconds.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse own output: %v\n%s", err, sb.String())
	}
	if v, _ := SampleValue(samples, "ldp_rt_total", `endpoint="reports"`); v != 7 {
		t.Fatalf("labeled counter = %v, want 7", v)
	}
	if v, _ := SampleValue(samples, "ldp_rt_seconds_count", ""); v != 2 {
		t.Fatalf("hist count = %v, want 2", v)
	}
	if v, _ := SampleValue(samples, "ldp_rt_seconds_bucket", `le="+Inf"`); v != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", v)
	}
	if v, _ := SampleValue(samples, "ldp_rt_seconds_bucket", `le="0.001"`); v != 1 {
		t.Fatalf("le=0.001 bucket = %v, want 1", v)
	}
}

func TestLintRules(t *testing.T) {
	bad := strings.Join([]string{
		"# HELP requests_total Requests.",
		"# TYPE requests_total counter",
		"requests_total 1",
		"# HELP ldp_stuff Stuff count.",
		"# TYPE ldp_stuff counter",
		"ldp_stuff 1",
		"# HELP ldp_other_total Stuff count.",
		"# TYPE ldp_other_total counter",
		"ldp_other_total 1",
		"# HELP ldp_lat Histogram of latency in seconds.",
		"# TYPE ldp_lat histogram",
	}, "\n")
	problems := Lint(bad)
	wantSubstrings := []string{
		"missing ldp_ prefix",
		"counter without _total suffix",
		"help string duplicates",
		"duration histogram without _seconds suffix",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lint missed %q in %v", want, problems)
		}
	}

	r := NewRegistry()
	NewHTTPMetrics(r, "test", nil, 0)
	r.Counter("ldp_good_total", "A well-named counter.").Inc()
	var sb strings.Builder
	r.WriteText(&sb)
	if problems := Lint(sb.String()); len(problems) != 0 {
		t.Fatalf("clean registry flagged: %v", problems)
	}
}
