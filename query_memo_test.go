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
		bits := make([]bool, n)
		bits[i%n] = true
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
