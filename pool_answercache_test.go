// Regression tests for the pool's snapshot-pinned answer cache: a repeated
// AnswerBatch over the same snapshot is served from cache byte-identically,
// and the moment the snapshot advances (new epoch from the same collector)
// the cached answers are invalidated, never served stale.
package ldp_test

import (
	"math/rand"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

func answerCacheFixture(t *testing.T) (ldp.Aggregator, *ldp.Collector, reportSource, *rand.Rand) {
	t.Helper()
	const n = 16
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, ldp.Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return agg, col, randomizerFor(t, agg), rand.New(rand.NewSource(11))
}

func ingestAnswerReports(t *testing.T, col *ldp.Collector, rz reportSource, rng *rand.Rand, users, n int) {
	t.Helper()
	for i := 0; i < users; i++ {
		rep, err := rz.Randomize(rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnswerCacheHitAndEpochInvalidation(t *testing.T) {
	const n = 16
	agg, col, rz, rng := answerCacheFixture(t)
	pool := ldp.NewEstimatorPool()
	workloads := []ldp.Workload{ldp.Histogram(n), ldp.Prefix(n)}

	ingestAnswerReports(t, col, rz, rng, 4000, n)
	snap1 := col.Snap()

	first, err := pool.AnswerBatch(agg, snap1, workloads, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.AnswerHits != 0 {
		t.Fatalf("cold batch reported %d answer hits", st.AnswerHits)
	}

	// Same snapshot again: every workload served from cache, byte-identical.
	second, err := pool.AnswerBatch(agg, snap1, workloads, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.AnswerHits != uint64(len(workloads)) {
		t.Fatalf("warm batch: AnswerHits=%d, want %d", st.AnswerHits, len(workloads))
	}
	for i := range first {
		if len(first[i].Answers) != len(second[i].Answers) {
			t.Fatalf("workload %d: answer lengths differ", i)
		}
		for j := range first[i].Answers {
			if first[i].Answers[j] != second[i].Answers[j] {
				t.Fatalf("workload %d answer %d: cached %v != computed %v", i, j, second[i].Answers[j], first[i].Answers[j])
			}
		}
		for j := range first[i].Variance {
			if first[i].Variance[j] != second[i].Variance[j] {
				t.Fatalf("workload %d variance %d: cached %v != computed %v", i, j, second[i].Variance[j], first[i].Variance[j])
			}
		}
	}
	// Cached slices are copies: mutating a result must not poison the cache.
	second[0].Answers[0] += 1e6
	third, err := pool.AnswerBatch(agg, snap1, workloads[:1], ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Answers[0] == second[0].Answers[0] {
		t.Fatal("caller mutation leaked into the answer cache")
	}

	// A variance-less batch is a distinct cache key, not a hit on the
	// variance entry.
	noVar, err := pool.AnswerBatch(agg, snap1, workloads[:1])
	if err != nil {
		t.Fatal(err)
	}
	if noVar[0].Variance != nil {
		t.Fatal("variance-less batch returned cached variances")
	}

	// Epoch advance: new reports, new snapshot — the cache must invalidate
	// and recompute, not serve the stale answers.
	ingestAnswerReports(t, col, rz, rng, 4000, n)
	snap2 := col.Snap()
	if snap2.Epoch() == snap1.Epoch() {
		t.Fatalf("collector did not advance the epoch: %d", snap2.Epoch())
	}
	hitsBefore := pool.Stats().AnswerHits
	fresh, err := pool.AnswerBatch(agg, snap2, workloads, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.AnswerHits != hitsBefore {
		t.Fatalf("batch over the advanced snapshot hit the stale cache (%d → %d hits)", hitsBefore, st.AnswerHits)
	}
	if st.AnswerInvalidations == 0 {
		t.Fatal("epoch advance did not invalidate the cached answers")
	}
	same := true
	for j := range fresh[0].Answers {
		if fresh[0].Answers[j] != first[0].Answers[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("answers over 8k reports identical to answers over 4k: stale cache served")
	}

	// And the new snapshot now caches in its own right.
	if _, err := pool.AnswerBatch(agg, snap2, workloads, ldp.WithBatchVariance()); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().AnswerHits; got != hitsBefore+uint64(len(workloads)) {
		t.Fatalf("re-batch over the new snapshot: AnswerHits=%d, want %d", got, hitsBefore+uint64(len(workloads)))
	}
}
