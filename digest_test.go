package ldp_test

import (
	"context"
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

// An optimized strategy is a pure function of (workload, ε, options) on one
// architecture: the README's reproducibility contract. These literals were
// read off the commit before Sections 3–4 were folded into one normal form
// (PR 28), so "no bit moved" is an assertion for that change and for every
// later one that touches the optimizer, its kernels or the projection. Each
// row is Optimize at ε = 1: the default options, a prior, and warm starts from
// the baseline strategies.
func TestOptimizeDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digests are amd64's (an architecture that fuses multiply-adds rounds differently)")
	}
	prior := func(n int) []float64 {
		p := make([]float64, n)
		for u := range p {
			p[u] = 1 + float64(u%3)
		}
		return p
	}
	warm := []ldp.OptimizeOption{ldp.WithWarmStarts()}
	cases := []struct {
		name  string
		w     ldp.Workload
		iters int
		seed  int64
		opts  []ldp.OptimizeOption
		want  string
	}{
		{"Prefix(16) defaults", ldp.Prefix(16), 60, 1, nil, "e13abebd023a3018"},
		{"Prefix(16) defaults", ldp.Prefix(16), 60, 3, nil, "06881eb7d3622448"},
		{"Prefix(16) prior", ldp.Prefix(16), 60, 1, []ldp.OptimizeOption{ldp.WithPrior(prior(16))}, "6946c65bcfe236b8"},
		{"Prefix(16) prior", ldp.Prefix(16), 60, 3, []ldp.OptimizeOption{ldp.WithPrior(prior(16))}, "61f2ab780e65a138"},
		{"Prefix(16) warm starts", ldp.Prefix(16), 60, 1, warm, "e13abebd023a3018"},
		{"Prefix(16) warm starts", ldp.Prefix(16), 60, 3, warm, "06881eb7d3622448"},
		{"AllRange(12) defaults", ldp.AllRange(12), 60, 1, nil, "c5a853436faba453"},
		{"AllRange(12) defaults", ldp.AllRange(12), 60, 3, nil, "9cfc4a0931f10fad"},
		{"AllRange(12) prior", ldp.AllRange(12), 60, 1, []ldp.OptimizeOption{ldp.WithPrior(prior(12))}, "8269802c74c18ee3"},
		{"AllRange(12) prior", ldp.AllRange(12), 60, 3, []ldp.OptimizeOption{ldp.WithPrior(prior(12))}, "700da8f7e7ac760f"},
		{"AllRange(12) warm starts", ldp.AllRange(12), 60, 1, warm, "c5a853436faba453"},
		{"AllRange(12) warm starts", ldp.AllRange(12), 60, 3, warm, "9cfc4a0931f10fad"},
		// At 60 iterations the random start beats every baseline, so the rows
		// above never leave it; after one iteration a baseline is ahead and
		// the warm-started run is what comes back (m = 16 and m = 30).
		{"AllRange(12) warm starts", ldp.AllRange(12), 1, 1, warm, "f22758cd2b4cf7bd"},
		{"Histogram(16) warm starts", ldp.Histogram(16), 1, 3, warm, "b8cbdcc6dd00734a"},
	}
	for _, c := range cases {
		opts := append([]ldp.OptimizeOption{ldp.WithIterations(c.iters), ldp.WithSeed(c.seed)}, c.opts...)
		o, err := ldp.Optimize(context.Background(), c.w, 1.0, opts...)
		if err != nil {
			t.Fatalf("%s, %d iterations, seed %d: %v", c.name, c.iters, c.seed, err)
		}
		if got := ldp.StrategyDigest(o.Strategy()); got != c.want {
			t.Errorf("%s, %d iterations, seed %d: strategy digest %s, pinned %s", c.name, c.iters, c.seed, got, c.want)
		}
	}
}
