// Regression tests for repeated AnswerBatch calls: the pool keeps no answer
// cache, but a repeated batch over the same snapshot must still answer the
// same bytes, a caller mutating a result must not change a later one, and
// once the snapshot advances (new epoch from the same collector) the batch
// answers the new reads, never the old ones.
package ldp_test

import (
	"math"
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

	// Same snapshot again: byte-identical answers and variances.
	second, err := pool.AnswerBatch(agg, snap1, workloads, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if len(first[i].Answers) != len(second[i].Answers) || len(first[i].Variance) != len(second[i].Variance) {
			t.Fatalf("workload %d: result lengths differ", i)
		}
		for j := range first[i].Answers {
			if math.Float64bits(first[i].Answers[j]) != math.Float64bits(second[i].Answers[j]) {
				t.Fatalf("workload %d answer %d: repeat %v != first %v", i, j, second[i].Answers[j], first[i].Answers[j])
			}
		}
		for j := range first[i].Variance {
			if math.Float64bits(first[i].Variance[j]) != math.Float64bits(second[i].Variance[j]) {
				t.Fatalf("workload %d variance %d: repeat %v != first %v", i, j, second[i].Variance[j], first[i].Variance[j])
			}
		}
	}

	// Results are the caller's: mutating one must not reach a later call.
	second[0].Answers[0] += 1e6
	third, err := pool.AnswerBatch(agg, snap1, workloads[:1], ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Answers[0] != first[0].Answers[0] {
		t.Fatalf("caller mutation leaked into a later batch: %v, want %v", third[0].Answers[0], first[0].Answers[0])
	}

	// Without WithBatchVariance there are no variances.
	noVar, err := pool.AnswerBatch(agg, snap1, workloads[:1])
	if err != nil {
		t.Fatal(err)
	}
	if noVar[0].Variance != nil {
		t.Fatal("variance-less batch returned variances")
	}

	// Epoch advance: new reports, new snapshot — the batch answers the new
	// reads, not the old ones.
	ingestAnswerReports(t, col, rz, rng, 4000, n)
	snap2 := col.Snap()
	if snap2.Epoch() == snap1.Epoch() {
		t.Fatalf("collector did not advance the epoch: %d", snap2.Epoch())
	}
	fresh, err := pool.AnswerBatch(agg, snap2, workloads, ldp.WithBatchVariance())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.Answers(snap2)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(fresh[i].Answers[j]) != math.Float64bits(want[j]) {
				t.Fatalf("workload %d answer %d over the advanced snapshot: %v, want %v", i, j, fresh[i].Answers[j], want[j])
			}
		}
	}
	same := true
	for j := range fresh[0].Answers {
		if fresh[0].Answers[j] != first[0].Answers[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("answers over 8k reports identical to answers over 4k: stale answers served")
	}
}
