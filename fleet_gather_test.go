package ldp_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	ldp "repro"
	"repro/internal/obs"
)

// Fleet.Snap and Fleet.SnapAt share one gather-and-merge helper; this walks
// both through one failure story over three members and pins what each read
// must keep to itself: coverage (stale fallback for live reads only), quorum
// refusal, breaker accounting (a definitive historical miss is not a
// failure; an unreachable shard is, for either read) and the merge-outcome
// metrics both reads feed.
func TestFleetSnapAndSnapAtShareGather(t *testing.T) {
	const n, perRound = 8, 40
	ctx := context.Background()
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["OUE"]

	// Members a and b retain history; a sits behind a kill switch. Member c is
	// memory-only: alive, but with no history to serve.
	var aDown atomic.Bool
	var endpoints [3]string
	var bound uint64
	for i := range endpoints {
		var col *ldp.Collector
		var err error
		if i < 2 {
			col = historyCollector(t, t.TempDir(), m.agg, w)
		} else if col, err = ldp.NewCollector(m.agg, w, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { col.Close() })
		for _, batch := range randomBatches(t, m.rz, n, []int{perRound}, int64(31+i)) {
			if err := col.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if i < 2 {
			bound = max(bound, col.Snap().Epoch())
			if err := col.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		inner := collectorHandler(t, col, ldp.MechanismInfoOf(m.agg))
		killable := i == 0
		hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if killable && aDown.Load() {
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(rw, req)
		}))
		t.Cleanup(hs.Close)
		endpoints[i] = hs.URL
	}

	fleet, err := ldp.NewFleet(m.agg, w,
		ldp.WithFleetRetryPolicy(fastRetryPolicy(1, nil)),
		ldp.WithFleetBreakerPolicy(ldp.BreakerPolicy{FailureThreshold: 2}),
		ldp.WithFleetQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for _, ep := range endpoints {
		if err := fleet.Register(ctx, ep); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := ldp.NewFleetServer(fleet)
	if err != nil {
		t.Fatal(err)
	}

	live := func() (ldp.Snapshot, ldp.Coverage, error) { return fleet.Snap(ctx) }
	past := func() (ldp.Snapshot, ldp.Coverage, error) { return fleet.SnapAt(ctx, bound) }
	const fresh, stale, missing = ldp.CoverageFresh, ldp.CoverageStale, ldp.CoverageMissing
	for _, step := range []struct {
		name     string
		aDown    bool
		read     func() (ldp.Snapshot, ldp.Coverage, error)
		status   [3]ldp.CoverageStatus
		count    float64 // merged count; 0 with refused
		refused  bool
		errPart  [3]string // substring of each member's coverage error
		aBreaker string
	}{
		{name: "live, all up", read: live,
			status: [3]ldp.CoverageStatus{fresh, fresh, fresh}, count: 3 * perRound, aBreaker: "closed"},
		{name: "historical, all up", read: past,
			status: [3]ldp.CoverageStatus{fresh, fresh, missing}, count: 2 * perRound,
			errPart: [3]string{"", "", "not retained"}, aBreaker: "closed"},
		{name: "live, a unreachable", aDown: true, read: live,
			status: [3]ldp.CoverageStatus{stale, fresh, fresh}, count: 3 * perRound,
			errPart: [3]string{"fetch snapshot"}, aBreaker: "closed"},
		{name: "historical, a unreachable", aDown: true, read: past,
			status: [3]ldp.CoverageStatus{missing, fresh, missing}, refused: true,
			errPart: [3]string{"fetch snapshot", "", "not retained"}, aBreaker: "open"},
		{name: "live, a circuit-broken", aDown: true, read: live,
			status: [3]ldp.CoverageStatus{stale, fresh, fresh}, count: 3 * perRound,
			errPart: [3]string{"circuit breaker open"}, aBreaker: "open"},
	} {
		aDown.Store(step.aDown)
		snap, cov, err := step.read()
		var qe *ldp.QuorumError
		if step.refused != errors.As(err, &qe) || (!step.refused && err != nil) {
			t.Fatalf("%s: err = %v, quorum refusal wanted: %v", step.name, err, step.refused)
		}
		if step.refused && (qe.Merged != 1 || qe.Quorum != 2) {
			t.Fatalf("%s: refusal %+v, want 1 merged against a quorum of 2", step.name, qe)
		}
		if snap.Count() != step.count {
			t.Fatalf("%s: merged count %v, want %v", step.name, snap.Count(), step.count)
		}
		var wantFresh, wantStale int
		for i, sc := range cov.Shards {
			if sc.Endpoint != endpoints[i] || sc.Status != step.status[i] {
				t.Fatalf("%s: member %d coverage %+v, want %v", step.name, i, sc, step.status[i])
			}
			if (step.errPart[i] == "") != (sc.Err == "") || !strings.Contains(sc.Err, step.errPart[i]) {
				t.Fatalf("%s: member %d coverage error %q, want one containing %q", step.name, i, sc.Err, step.errPart[i])
			}
			// Only a live read reports what a non-contributing member last held.
			if sc.Status == missing && sc.Count != 0 {
				t.Fatalf("%s: missing member %d carries count %v", step.name, i, sc.Count)
			}
			switch sc.Status {
			case fresh:
				wantFresh++
			case stale:
				wantStale++
			}
		}
		if cov.Total != 3 || cov.Fresh != wantFresh || cov.Stale != wantStale {
			t.Fatalf("%s: coverage %s, want %d fresh and %d stale of 3", step.name, cov, wantFresh, wantStale)
		}
		members := fleet.Members()
		if got := members[0].Breaker; got != step.aBreaker {
			t.Fatalf("%s: a's breaker %s, want %s", step.name, got, step.aBreaker)
		}
		// Definitive "not retained" answers never count against c's breaker.
		if got := members[2].Breaker; got != "closed" {
			t.Fatalf("%s: c's breaker %s, want closed", step.name, got)
		}
	}

	var text bytes.Buffer
	if err := fs.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[[2]string]float64{
		{"ldp_fleet_merges_total", `outcome="complete"`}:       1,
		{"ldp_fleet_merges_total", `outcome="degraded"`}:       3,
		{"ldp_fleet_merges_total", `outcome="quorum_refused"`}: 1,
		{"ldp_fleet_coverage_fresh", ""}:                       2,
		{"ldp_fleet_coverage_stale", ""}:                       1,
		{"ldp_fleet_coverage_missing", ""}:                     0,
	} {
		if got, _ := obs.SampleValue(samples, series[0], series[1]); got != want {
			t.Errorf("%s{%s} = %v, want %v", series[0], series[1], got, want)
		}
	}
}
