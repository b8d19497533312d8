// Skewed-population merge: two shards serving populations three orders of
// magnitude apart (1:1000) must merge into a statistically sound combined
// estimate, while the coverage report makes the imbalance impossible to
// miss — DriftRatio fires far past ldpquery -drift's default 10× warning threshold.
// This is the shape a shard restored from a stale checkpoint (or a freshly
// added shard) presents to the fan-in, and the contract is: warn loudly,
// never distort the merged answer.
package ldp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	ldp "repro"
	"repro/internal/loadgen"
)

func TestFleetSnapSkewedShardsDriftAndEnvelope(t *testing.T) {
	const (
		domain     = 16
		smallUsers = 10
		bigUsers   = 10000 // 1:1000 against the small shard
		seed       = 97
	)
	agg, w, shards := fleetFixture(t, domain, 2)
	f, err := ldp.NewFleet(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	registerAll(t, ctx, f, shards)

	// Feed each shard directly (no routing in play here) with a zipf-flavored
	// item stream, tracking the ground truth per cell.
	rz := randomizerFor(t, agg)
	rng := rand.New(rand.NewSource(seed))
	truth := make([]float64, domain)
	zipf := rand.NewZipf(rng, 1.1, 1, domain-1)
	ingest := func(sh *fleetShard, users int) {
		for i := 0; i < users; i++ {
			item := int(zipf.Uint64())
			rep, err := rz.Randomize(item, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.col.Ingest(rep); err != nil {
				t.Fatal(err)
			}
			truth[item]++
		}
	}
	ingest(shards[0], smallUsers)
	ingest(shards[1], bigUsers)

	merged, cov, err := f.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("both shards are up, coverage should be complete: %s", cov)
	}
	if got := merged.Count(); math.Abs(got-float64(smallUsers+bigUsers)) > 0.5 {
		t.Fatalf("merged count %v, want %d", got, smallUsers+bigUsers)
	}

	// The coverage must expose the imbalance: DriftRatio names the two
	// shards and lands at the true 1000× ratio, far past the 10× default
	// warning threshold ldpquery -drift applies.
	ratio, minS, maxS := cov.DriftRatio()
	if ratio <= 10 {
		t.Fatalf("DriftRatio()=%v for a 1:1000 split, want > 10 (ldpquery -drift default threshold)", ratio)
	}
	if math.Abs(ratio-float64(bigUsers)/float64(smallUsers)) > 1e-9 {
		t.Fatalf("DriftRatio()=%v, want exactly %v", ratio, float64(bigUsers)/float64(smallUsers))
	}
	if minS.Endpoint != shards[0].hs.URL || maxS.Endpoint != shards[1].hs.URL {
		t.Fatalf("drift endpoints min=%s max=%s, want min=%s max=%s",
			minS.Endpoint, maxS.Endpoint, shards[0].hs.URL, shards[1].hs.URL)
	}
	if minS.Count != smallUsers || maxS.Count != bigUsers {
		t.Fatalf("drift counts min=%v max=%v, want %d and %d", minS.Count, maxS.Count, smallUsers, bigUsers)
	}

	// A lone-shard coverage has no peer to drift against.
	if lone, _, _ := (ldp.Coverage{Shards: cov.Shards[:1]}).DriftRatio(); lone != 0 {
		t.Fatalf("single-shard DriftRatio()=%v, want 0", lone)
	}

	// The merged estimate must stay inside the acceptance envelope
	// (loadgen.Score) over the combined population — the skew warns, it must
	// not bias.
	e, err := loadgen.Score(agg, merged, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !e.InEnvelope {
		t.Errorf("merged estimate outside the envelope: %+v", e)
	}

	// And the Fleet merge must agree bit-for-bit with a direct
	// Snapshot.Merge of the two shards' snapshots — fan-in is an
	// element-wise sum, nothing more.
	direct, err := shards[0].col.Snap().Merge(shards[1].col.Snap())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Count() != merged.Count() {
		t.Fatalf("direct merge count %v != fleet merge count %v", direct.Count(), merged.Count())
	}
	ds, ms := direct.State(), merged.State()
	for i := range ds {
		if ds[i] != ms[i] {
			t.Fatalf("state[%d]: direct merge %v != fleet merge %v", i, ds[i], ms[i])
		}
	}
}
