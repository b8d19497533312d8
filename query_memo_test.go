package ldp

import (
	"io"
	"testing"

	"repro/internal/transport"
)

// Regression: /query names its workload on every request. Each request used
// to build a fresh instance, so the pool's per-instance digest memo never hit
// — every query re-hashed all p·n entries of W and parked one more entry in
// the memo. Repeating one request must resolve the name to the same instance
// every time and leave the memo at a constant size.
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
	query := func() Workload {
		t.Helper()
		if err := answerQuery(pool, agg, snap, q, io.Discard); err != nil {
			t.Fatal(err)
		}
		w, err := pool.namedWorkload("AllRange", n)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	first := query()
	memo := len(pool.digests)
	for i := 1; i < repeats; i++ {
		if w := query(); w != first {
			t.Fatalf("query %d resolved AllRange(%d) to a new instance: its digest is recomputed per request", i+1, n)
		}
	}
	if got := len(pool.digests); got != memo {
		t.Fatalf("digest memo grew from %d to %d entries over %d identical queries", memo, got, repeats)
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
