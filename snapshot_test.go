package ldp_test

import (
	"context"
	"strings"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// ingestSome feeds count reports of a trivial shape into a collector.
func ingestSome(t *testing.T, c *ldp.Collector, n, count, seedOff int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := c.Ingest(ldp.Report{Index: (i + seedOff) % n}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotMergeSumsStateAndCount(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ingestSome(t, a, n, 10, 0)
	ingestSome(t, b, n, 7, 3)

	merged, err := a.Snap().Merge(b.Snap())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count() != 17 {
		t.Fatalf("merged count %v, want 17", merged.Count())
	}
	sa, sb, sm := a.Snap().State(), b.Snap().State(), merged.State()
	for i := range sm {
		if sm[i] != sa[i]+sb[i] {
			t.Fatalf("state[%d]: %v != %v + %v", i, sm[i], sa[i], sb[i])
		}
	}
	if merged.Info().Digest != ldp.StrategyDigest(s) {
		t.Fatalf("merged snapshot lost the mechanism digest: %+v", merged.Info())
	}

	// MergeSnapshots folds any number; order does not matter for the state.
	folded, err := ldp.MergeSnapshots(b.Snap(), a.Snap())
	if err != nil {
		t.Fatal(err)
	}
	fs := folded.State()
	for i := range sm {
		if fs[i] != sm[i] {
			t.Fatalf("fold order changed state[%d]", i)
		}
	}
	if _, err := ldp.MergeSnapshots(); err == nil {
		t.Fatal("empty merge accepted")
	}
}

// The acceptance-critical rejection: two strategy matrices sharing name,
// domain, and ε are still different mechanisms — only the digest tells them
// apart, and Merge must refuse to sum their accumulators.
func TestSnapshotMergeRejectsDigestMismatch(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	s1 := baselines.RandomizedResponse(n, 1.0).Strategy()
	s2 := baselines.RandomizedResponse(n, 1.0).Strategy()
	d := 0.1 / float64(n)
	s2.Q.Set(0, 0, s2.Q.At(0, 0)-d)
	s2.Q.Set(1, 0, s2.Q.At(1, 0)+d)
	agg1, err := ldp.NewAggregator(s1)
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := ldp.NewAggregator(s2)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ldp.NewCollector(agg1, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ldp.NewCollector(agg2, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Snap().Merge(c2.Snap()); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch not rejected: %v", err)
	}
}

func TestSnapshotMergeRejectsMechanismMismatch(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rap, err := ldp.NewRAPPOROracle(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ldp.NewCollector(oue, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ldp.NewCollector(rap, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same domain, same ε, same accumulator width — only the family differs.
	if _, err := c1.Snap().Merge(c2.Snap()); err == nil || !strings.Contains(err.Error(), "mechanism") {
		t.Fatalf("cross-family merge not rejected: %v", err)
	}

	// Same family at different ε: different flip probabilities, different
	// channel.
	oue2, err := ldp.NewOUE(n, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ldp.NewCollector(oue2, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Snap().Merge(c3.Snap()); err == nil {
		t.Fatal("cross-ε merge not rejected")
	}

	// Different domain ⇒ different width.
	oueWide, err := ldp.NewOUE(2*n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := ldp.NewCollector(oueWide, ldp.Histogram(2*n), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Snap().Merge(c4.Snap()); err == nil {
		t.Fatal("cross-domain merge not rejected")
	}
}

// Snapshot epochs are a monotonic sequence of distinct observed states: an
// idle re-snap keeps the epoch, an ingest advances it, and a merged snapshot
// carries the largest constituent epoch.
func TestSnapshotEpochAdvancesWithState(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(oue, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := col.Snap()
	if again := col.Snap(); again.Epoch() != first.Epoch() {
		t.Fatalf("idle re-snap moved the epoch: %d -> %d", first.Epoch(), again.Epoch())
	}
	bits := ldp.NewBitVec(n)
	if err := col.Ingest(ldp.Report{Bits: bits}); err != nil {
		t.Fatal(err)
	}
	after := col.Snap()
	if after.Epoch() <= first.Epoch() {
		t.Fatalf("epoch did not advance across an ingest: %d -> %d", first.Epoch(), after.Epoch())
	}

	// A one-shard collector behaves the same way.
	one, err := ldp.NewCollector(oue, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1 := one.Snap()
	if s2 := one.Snap(); s2.Epoch() != s1.Epoch() {
		t.Fatal("idle one-shard re-snap moved the epoch")
	}
	if err := one.Ingest(ldp.Report{Bits: bits}); err != nil {
		t.Fatal(err)
	}
	s3 := one.Snap()
	if s3.Epoch() <= s1.Epoch() {
		t.Fatal("one-shard epoch did not advance across an ingest")
	}
	if s4 := one.Snap(); s4.Epoch() != s3.Epoch() {
		t.Fatal("idle one-shard re-snap after an ingest moved the epoch")
	}

	// A merge keeps the largest epoch it saw.
	other, err := ldp.NewCollector(oue, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := after.Merge(other.Snap())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Epoch() != after.Epoch() {
		t.Fatalf("merged epoch %d, want max constituent %d", merged.Epoch(), after.Epoch())
	}
}

// /healthz (the merge-free countEpoch path) and /snapshot (the full merge)
// must number the same states identically: a healthz poll that observes a
// new count claims the epoch, and the following snapshot of the unchanged
// state reports that same epoch, not a fresh one.
func TestHealthzAndSnapshotAgreeOnEpoch(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	info := ldp.MechanismInfoOf(agg)
	hs := startCollectorServer(t, agg, w, info)
	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, w, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		if err := rcol.IngestBatch(ctx, []ldp.Report{{Index: round % n}}); err != nil {
			t.Fatal(err)
		}
		if err := rcol.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		h, err := rcol.Healthz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Count != float64(round+1) {
			t.Fatalf("round %d: healthz count %v", round, h.Count)
		}
		snap, err := rcol.Snap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch() != h.Epoch {
			t.Fatalf("round %d: snapshot epoch %d, healthz epoch %d — the two views diverged", round, snap.Epoch(), h.Epoch)
		}
		h2, err := rcol.Healthz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h2.Epoch != h.Epoch || h2.Count != h.Count {
			t.Fatalf("round %d: idle healthz re-poll moved the view: %+v -> %+v", round, h, h2)
		}
	}
}

// Snapshots are immutable values: mutating what State() returned must not
// leak back into the snapshot, and NewSnapshot must copy its input.
func TestSnapshotImmutability(t *testing.T) {
	state := []float64{1, 2, 3}
	snap := ldp.NewSnapshot(state, 3, 1, ldp.MechanismInfo{Domain: 3})
	state[0] = 99
	if got := snap.State(); got[0] != 1 {
		t.Fatalf("NewSnapshot aliased its input: %v", got)
	}
	out := snap.State()
	out[1] = -5
	if got := snap.State(); got[1] != 2 {
		t.Fatalf("State() handed out the internal slice: %v", got)
	}
}
