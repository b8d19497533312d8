package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	ldp "repro"
)

// TestFanInMatchesServer: over one httptest shard, fan-in mode prints what
// -server mode prints under its coverage line, and it refuses a confidence
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

	ctx, names, mech := context.Background(), []string{"Histogram", "Prefix"}, queryMech{mech: "oue", n: n, eps: 1}
	for _, level := range []float64{0, 0.95} {
		var server, fanIn bytes.Buffer
		if err := queryServer(ctx, &server, hs.URL, names, level, true, true, 0); err != nil {
			t.Fatal(err)
		}
		if err := queryFanIn(ctx, &fanIn, hs.URL, names, mech, level, true, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := fanIn.String(), "# coverage: 1/1 shards\n"+server.String(); got != want {
			t.Errorf("level %v: fan-in printed\n%s\n-server printed\n%s", level, got, want)
		}
	}
	for _, level := range []float64{1.5, 1, -0.5} {
		var out bytes.Buffer
		if err := queryFanIn(ctx, &out, hs.URL, names, mech, level, false, 0, 0); err == nil {
			t.Errorf("level %v: fan-in answered instead of refusing:\n%s", level, out.String())
		}
	}
}
