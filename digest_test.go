package ldp_test

import (
	"math"
	"runtime"
	"testing"

	ldp "repro"
)

// A workload digest is a persisted name: the strategy cache's file name and
// the query wire's word for "the same workload" between a client and a shard
// built from different commits. These literals were read off the commit
// before WorkloadDigest stopped materializing W (PR 27) and must never move.
// The Product and Explicit rows carry the sign of a zero: Kron leaves the
// block under a zero left-factor entry +0 where 0·(−1) is −0, and an explicit
// −0 is hashed as stored.
func TestWorkloadDigestPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	explicit, err := ldp.NewWorkload("custom", [][]float64{{1, negZero, -2.5}, {0, 3, negZero}})
	if err != nil {
		t.Fatal(err)
	}
	mix := ldp.Stacked("Mix", []ldp.Workload{ldp.Histogram(6), ldp.Prefix(6)}, []float64{1, 2})
	cases := []struct {
		name string
		w    ldp.Workload
		want string
	}{
		{"Histogram(3)", ldp.Histogram(3), "2e844b6e43b1f1a7"},
		{"Prefix(8)", ldp.Prefix(8), "ebd7f4b9fe4ef4d7"},
		{"AllRange(8)", ldp.AllRange(8), "991d5b49adccfb4d"},
		{"AllMarginals(3)", ldp.AllMarginals(3), "b3db2368d724fe93"},
		{"KWayMarginals(4,3)", ldp.KWayMarginals(4, 3), "7b4c27b27cc5c48a"},
		{"Parity(3)", ldp.Parity(3), "9d57eb70c69b7f5e"},
		{"WidthRange(8,3)", ldp.WidthRange(8, 3), "2dde8579b50492fe"},
		{"Product(Prefix(3),Parity(2))", ldp.Product(ldp.Prefix(3), ldp.Parity(2)), "4540a58b42919d2a"},
		{"AllRange(96)", ldp.AllRange(96), "cf887bb347fde22b"},
		{"AllRange(256)", ldp.AllRange(256), "4565422720fe26c6"},
		{"Stacked(Histogram(6),2·Prefix(6))", mix, "61c87232293427da"},
		{"Stacked(½·Parity(2),3·Product(Prefix(2),Parity(1)))",
			ldp.Stacked("MixP", []ldp.Workload{ldp.Parity(2), ldp.Product(ldp.Prefix(2), ldp.Parity(1))}, []float64{0.5, 3}),
			"4fa61624b805c5fb"},
		{"Product(Stacked,Parity(2))",
			ldp.Product(ldp.Stacked("Mix", []ldp.Workload{ldp.Histogram(3), ldp.Prefix(3)}, []float64{1, 2}), ldp.Parity(2)),
			"a92495d3fcefe13b"},
		{"Explicit with −0 and a negative entry", explicit, "3be5b729e3865880"},
		// Past maxWireElems the digest hashes the Gram matrix instead of W.
		{"AllRange(1024), Gram-tagged", ldp.AllRange(1024), "07999fefcf310c8e"},
	}
	for _, c := range cases {
		if got := ldp.WorkloadDigest(c.w); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

// WorkloadDigest hashes W out of one reused n-vector. AllRange(128) is 8,256
// rows of 1 KiB; a digest that built them (8.5 MB at the commit before this
// test) allocates two orders of magnitude past the bound.
func TestWorkloadDigestBuildsNoMatrix(t *testing.T) {
	w := ldp.AllRange(128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	digest := ldp.WorkloadDigest(w)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("WorkloadDigest(AllRange(128)) = %s allocated %d bytes, bound %d", digest, got, 64<<10)
	}
}
