package ldp_test

import (
	"context"
	"path/filepath"
	"testing"

	ldp "repro"
)

// A keyed retry that crosses a router restart must land on the shard that
// first absorbed the key. Without the binding log the rebuilt fleet would
// rotate the key onto whichever shard its fresh round-robin picks — a shard
// whose idempotency cache never saw the key, which would absorb the batch a
// second time. With the log, the binding replays on open and the retry hits
// the original shard's idempotency cache instead.
func TestFleetBindingLogSurvivesRestart(t *testing.T) {
	const domain = 8
	path := filepath.Join(t.TempDir(), "bindings.log")
	agg, w, shards := fleetFixture(t, domain, 2)
	ctx := context.Background()
	reports := []ldp.Report{{Index: 1}, {Index: 2}, {Index: 3}}

	f1, err := ldp.NewFleet(agg, w,
		ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)),
		ldp.WithFleetBindingLog(path))
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, ctx, f1, shards)
	if n, err := f1.IngestKeyed(ctx, framed(t, reports), "sticky-key"); err != nil || n != len(reports) {
		t.Fatalf("first keyed ingest = (%d, %v)", n, err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	var bound, other *fleetShard
	for _, sh := range shards {
		if sh.col.Count() > 0 {
			bound = sh
		} else {
			other = sh
		}
	}
	if bound == nil || other == nil {
		t.Fatalf("expected the batch on exactly one shard, counts %v/%v",
			shards[0].col.Count(), shards[1].col.Count())
	}

	// "Restart": a new fleet over the same log, shards registered in the
	// opposite order so a fresh round-robin pick would choose the other shard.
	f2, err := ldp.NewFleet(agg, w,
		ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)),
		ldp.WithFleetBindingLog(path))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := f2.Register(ctx, other.hs.URL); err != nil {
		t.Fatal(err)
	}
	if err := f2.Register(ctx, bound.hs.URL); err != nil {
		t.Fatal(err)
	}

	// The retry: same key, same batch. The replayed binding must route it to
	// the original shard, whose idempotency cache replays instead of
	// re-absorbing.
	if n, err := f2.IngestKeyed(ctx, framed(t, reports), "sticky-key"); err != nil || n != len(reports) {
		t.Fatalf("retry across restart = (%d, %v)", n, err)
	}
	if got := bound.col.Count(); got != float64(len(reports)) {
		t.Fatalf("bound shard count %v after the retry, want %d (double absorb?)", got, len(reports))
	}
	if got := other.col.Count(); got != 0 {
		t.Fatalf("retry leaked %v reports onto the other shard", got)
	}

	// A fresh key on the restarted fleet routes and binds normally.
	if n, err := f2.IngestKeyed(ctx, framed(t, reports), "new-key"); err != nil || n != len(reports) {
		t.Fatalf("fresh key after restart = (%d, %v)", n, err)
	}
	total := shards[0].col.Count() + shards[1].col.Count()
	if total != float64(2*len(reports)) {
		t.Fatalf("fleet holds %v reports, want %d", total, 2*len(reports))
	}
}
