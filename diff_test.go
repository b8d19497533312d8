package ldp_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// diffAggregators builds one aggregator per mechanism family — the round-trip
// property must hold for every accumulator shape, not just the one a single
// mechanism happens to produce.
func diffAggregators(t *testing.T, n int) map[string]ldp.Aggregator {
	t.Helper()
	strat, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rap, err := ldp.NewRAPPOROracle(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ldp.Aggregator{"strategy": strat, "OUE": oue, "RAPPOR": rap}
}

// The round-trip property behind every windowed read: for snapshots a ⊇ b of
// one collector, a.Diff(b).Merge(b) is BIT-identical to a — state bits, count,
// epoch, and identity. Accumulators are integer-valued sums, so the
// subtraction is exact for every mechanism.
func TestSnapshotDiffMergeRoundTrip(t *testing.T) {
	const n, users = 16, 400
	w := ldp.Histogram(n)
	for name, agg := range diffAggregators(t, n) {
		t.Run(name, func(t *testing.T) {
			col, err := ldp.NewCollector(agg, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			rz := randomizerFor(t, agg)
			rng := rand.New(rand.NewSource(42))
			ingest := func(count int) {
				t.Helper()
				for i := 0; i < count; i++ {
					rep, err := rz.Randomize(rng.Intn(n), rng)
					if err != nil {
						t.Fatal(err)
					}
					if err := col.Ingest(rep); err != nil {
						t.Fatal(err)
					}
				}
			}
			ingest(users)
			older := col.Snap()
			ingest(users / 3)
			newer := col.Snap()

			d, err := newer.Diff(older)
			if err != nil {
				t.Fatal(err)
			}
			if d.Count() != newer.Count()-older.Count() {
				t.Fatalf("window count %v, want %v", d.Count(), newer.Count()-older.Count())
			}
			if d.Epoch() != newer.Epoch() {
				t.Fatalf("diff epoch %d, want the newer endpoint's %d", d.Epoch(), newer.Epoch())
			}
			back, err := d.Merge(older)
			if err != nil {
				t.Fatal(err)
			}
			if back.Count() != newer.Count() || back.Epoch() != newer.Epoch() || back.Info() != newer.Info() {
				t.Fatalf("round trip changed the envelope: %+v vs %+v", back, newer)
			}
			bs, ns := back.State(), newer.State()
			for i := range ns {
				if math.Float64bits(bs[i]) != math.Float64bits(ns[i]) {
					t.Fatalf("state[%d] not bit-identical after Diff+Merge: %x vs %x",
						i, math.Float64bits(bs[i]), math.Float64bits(ns[i]))
				}
			}
			// The empty window is exact too: a self-diff is all zeros.
			z, err := newer.Diff(newer)
			if err != nil {
				t.Fatal(err)
			}
			if z.Count() != 0 {
				t.Fatalf("self-diff count %v", z.Count())
			}
			for i, v := range z.State() {
				if v != 0 {
					t.Fatalf("self-diff state[%d] = %v", i, v)
				}
			}
		})
	}
}

func TestSnapshotDiffRefusals(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	aggs := diffAggregators(t, n)
	col, err := ldp.NewCollector(aggs["OUE"], w, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rz := randomizerFor(t, aggs["OUE"])
	ingest := func(c *ldp.Collector, src reportSource, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			rep, err := src.Randomize(i%n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(col, rz, 5)
	older := col.Snap()
	ingest(col, rz, 5)
	newer := col.Snap()

	// Epoch inversion: subtracting the newer endpoint from the older would
	// fabricate negative report counts.
	if _, err := older.Diff(newer); err == nil || !strings.Contains(err.Error(), "epoch inversion") {
		t.Fatalf("epoch inversion accepted: %v", err)
	}
	// Count inversion: a baseline merged over a shard the newer cut lacks
	// holds more reports than the newer cut, though its epoch is not newer.
	shard, err := ldp.NewCollector(aggs["OUE"], w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ingest(shard, rz, 7)
	baseline, err := older.Merge(shard.Snap())
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Epoch() > newer.Epoch() || baseline.Count() <= newer.Count() {
		t.Fatalf("fixture: baseline epoch %d count %v, newer epoch %d count %v", baseline.Epoch(), baseline.Count(), newer.Epoch(), newer.Count())
	}
	if _, err := newer.Diff(baseline); err == nil || !strings.Contains(err.Error(), "count inversion") {
		t.Fatalf("count inversion accepted: %v", err)
	}
	// Mechanism identity conflict: two different mechanisms never share a
	// timeline.
	other, err := ldp.NewCollector(aggs["RAPPOR"], w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ingest(other, randomizerFor(t, aggs["RAPPOR"]), 3)
	if _, err := newer.Diff(other.Snap()); err == nil {
		t.Fatal("cross-mechanism diff accepted")
	}
}
