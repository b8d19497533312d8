package ldp

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// Regression: /query names its workload on every request. Each request used
// to build a fresh instance, so the pool's per-instance digest memo never hit
// — every query re-materialized W to hash it (megabytes for AllRange) and
// parked one more entry in the memo. Repeating one request must leave the
// memo at a constant size and cost a fraction of the first request's
// allocation.
func TestQueryDigestMemoHitsAcrossRequests(t *testing.T) {
	const n, repeats = 96, 8
	agg, err := NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(agg, Histogram(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		bits := NewBitVec(n)
		bits.Set(i % n)
		if err := col.Ingest(Report{Bits: bits}); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewEstimatorPool()
	snap := col.Snap()
	q := transport.QueryRequest{Workload: "AllRange", Domain: n, Digest: WorkloadDigest(AllRange(n))}
	query := func() (allocated uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := answerQuery(pool, agg, snap, q, io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	first := query()
	memo := len(pool.digests)
	var last uint64
	for i := 1; i < repeats; i++ {
		last = query()
	}
	if got := len(pool.digests); got != memo {
		t.Fatalf("digest memo grew from %d to %d entries over %d identical queries", memo, got, repeats)
	}
	if last*4 > first {
		t.Fatalf("query %d allocated %d bytes, the first %d: the workload is still re-digested per request", repeats, last, first)
	}
}

// Regression: the pool's digest and identity-key memos are keyed by caller
// instance, so a library caller handing AnswerBatch a fresh workload literal
// and a fresh aggregator per call used to grow both without bound — each
// entry pinning its workload (and that workload's cached n×n Gram) forever.
// Both memos stay at or under maxInstanceMemo however many instances pass
// through, and a reset memo changes no answer.
func TestPoolInstanceMemosBounded(t *testing.T) {
	const n, instances = 8, 10000
	agg, err := NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]float64, agg.StateLen())
	for i := range state {
		state[i] = float64(3 + i)
	}
	snap := NewSnapshot(state, 40, 1, MechanismInfoOf(agg))
	pool := NewEstimatorPool()
	var want []BatchAnswer
	for i := 0; i < instances; i++ {
		fresh, err := NewOUE(n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.AnswerBatch(fresh, snap, []Workload{Prefix(n)}, WithBatchVariance())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		}
		for j := range want[0].Answers {
			if got[0].Answers[j] != want[0].Answers[j] || got[0].Variance[j] != want[0].Variance[j] {
				t.Fatalf("instance %d row %d: (%v, %v), first instance answered (%v, %v)", i, j,
					got[0].Answers[j], got[0].Variance[j], want[0].Answers[j], want[0].Variance[j])
			}
		}
		if d, k := len(pool.digests), len(pool.idkeys); d > maxInstanceMemo || k > maxInstanceMemo {
			t.Fatalf("after %d instances the memos hold %d digests and %d identity keys, bound %d", i+1, d, k, maxInstanceMemo)
		}
	}
}
