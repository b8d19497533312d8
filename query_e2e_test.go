package ldp_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	ldp "repro"
	"repro/internal/transport"
)

// One shard end to end: a framed POST /query against a CollectorService must
// stream back exactly what the estimator computes locally — answers, variances
// and CIs bit-identical — and refuse mismatched digests, unknown workloads,
// and wrong domains with a 400 before the first result byte.
func TestCollectorServiceQueryEndToEnd(t *testing.T) {
	const n, users = 16, 300
	agg, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	w := ldp.Prefix(n)
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(agg))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()

	rz := randomizerFor(t, agg)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < users; i++ {
		u := rng.Intn(n / 4)
		if rng.Float64() < 0.25 {
			u = rng.Intn(n)
		}
		rep, err := rz.Randomize(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snap()

	c, err := transport.NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The query workload differs from the collector's configured one on
	// purpose: the query engine answers any workload over the snapshot.
	qw := ldp.AllRange(n)
	est, err := ldp.NewEstimator(agg, qw)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := est.Answers(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := est.Variance(snap)
	if err != nil {
		t.Fatal(err)
	}

	req := transport.QueryRequest{
		Workload: "AllRange", Domain: n, Digest: ldp.WorkloadDigest(qw),
		Level: 0.9, WantVariance: true, WantCI: true,
	}
	next := 0
	info, err := c.PostQuery(ctx, req, func(row transport.QueryRow) bool {
		if row.Index != next {
			t.Fatalf("row %d arrived at position %d", row.Index, next)
		}
		if math.Float64bits(row.Answer) != math.Float64bits(wantA[row.Index]) {
			t.Fatalf("row %d answer: served %v, local %v", row.Index, row.Answer, wantA[row.Index])
		}
		if math.Float64bits(row.Variance) != math.Float64bits(wantV[row.Index]) {
			t.Fatalf("row %d variance: served %v, local %v", row.Index, row.Variance, wantV[row.Index])
		}
		if row.Low > row.Answer || row.High < row.Answer {
			t.Fatalf("row %d CI [%v, %v] does not contain %v", row.Index, row.Low, row.High, row.Answer)
		}
		next++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != qw.Queries() || info.TotalRows != qw.Queries() {
		t.Fatalf("streamed %d rows, want %d (info %+v)", next, qw.Queries(), info)
	}
	if info.Count != snap.Count() || info.Epoch != snap.Epoch() {
		t.Fatalf("result header %+v does not match the snapshot (count %v epoch %d)", info, snap.Count(), snap.Epoch())
	}

	// Rejections: each must be an HTTP status, not a truncated stream.
	for name, bad := range map[string]transport.QueryRequest{
		"unknownWorkload": {Workload: "NoSuchFamily"},
		"wrongDomain":     {Workload: "Prefix", Domain: n * 2},
		"digestMismatch":  {Workload: "Prefix", Digest: "0000000000000000"},
	} {
		_, err := c.PostQuery(ctx, bad, func(transport.QueryRow) bool { return true })
		var se *transport.StatusError
		if err == nil || !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %v, want a 400 StatusError", name, err)
		}
	}
}

// The router tier: POST /query against a FleetServer answers over the merged
// fleet snapshot, carries the coverage headers snapshot reads carry, and is a
// 404 until EnableQueries arms it.
func TestFleetServerQueryEndToEnd(t *testing.T) {
	const domain, total = 16, 120
	f, fs, hs, _, agg, _ := routerFixture(t, domain, 3)

	// Not enabled yet: the route exists but refuses.
	var reqBuf bytes.Buffer
	q := transport.QueryRequest{Workload: "Prefix", WantVariance: true}
	if err := transport.EncodeQueryFrame(&reqBuf, q); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/query", "application/octet-stream", bytes.NewReader(reqBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query before EnableQueries = %d, want 404", resp.StatusCode)
	}

	// A mechanism that is not the fleet's is refused outright.
	other, err := ldp.NewOUE(domain, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableQueries(other); err == nil {
		t.Fatal("EnableQueries accepted an aggregator with a different mechanism identity")
	}
	if err := fs.EnableQueries(agg); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < total; i++ {
		if _, err := f.IngestKeyed(ctx, framed(t, []ldp.Report{{Index: i % domain}}), ""); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	merged, _, err := f.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ldp.NewEstimator(agg, ldp.Prefix(domain))
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := est.Answers(merged)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := est.Variance(merged)
	if err != nil {
		t.Fatal(err)
	}

	resp, err = hs.Client().Post(hs.URL+"/query", "application/octet-stream", bytes.NewReader(reqBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d, want 200", resp.StatusCode)
	}
	if cov := resp.Header.Get("Ldp-Fleet-Coverage"); cov == "" {
		t.Error("query response carries no Ldp-Fleet-Coverage header")
	}
	if got := resp.Header.Get("Ldp-Fleet-Shards-Merged"); got != "3" {
		t.Errorf("Ldp-Fleet-Shards-Merged = %q, want 3", got)
	}
	next := 0
	info, err := transport.DecodeQueryResult(resp.Body, func(row transport.QueryRow) bool {
		if math.Float64bits(row.Answer) != math.Float64bits(wantA[row.Index]) {
			t.Fatalf("row %d answer: routed %v, local merge %v", row.Index, row.Answer, wantA[row.Index])
		}
		if math.Float64bits(row.Variance) != math.Float64bits(wantV[row.Index]) {
			t.Fatalf("row %d variance: routed %v, local merge %v", row.Index, row.Variance, wantV[row.Index])
		}
		next++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != domain || info.TotalRows != domain {
		t.Fatalf("streamed %d rows, want %d", next, domain)
	}
	if info.Count != float64(total) {
		t.Fatalf("result count %v, want %d (merged fleet total)", info.Count, total)
	}
}
