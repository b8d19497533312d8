package strategy_test

import (
	"context"
	"math"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/strategy"
)

// The gate checks Q, but clients emit what the alias tables realize. Each
// table's distribution must keep every output's ratio across user types
// within e^ε (to a relative 10⁻¹²) and never put a zero beside a positive,
// on the strategies TestOptimizeDigestPinned pins and on every Table 1
// competitor.
func TestAliasTablesRealizeEpsilon(t *testing.T) {
	type named struct {
		name string
		s    *strategy.Strategy
	}
	var cases []named
	prior := func(n int) []float64 {
		p := make([]float64, n)
		for u := range p {
			p[u] = 1 + float64(u%3)
		}
		return p
	}
	optimize := func(name string, w ldp.Workload, iters int, seed int64, opts ...ldp.OptimizeOption) {
		opts = append([]ldp.OptimizeOption{ldp.WithIterations(iters), ldp.WithSeed(seed)}, opts...)
		o, err := ldp.Optimize(context.Background(), w, 1.0, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, named{name, o.Strategy()})
	}
	for _, w := range []ldp.Workload{ldp.Prefix(16), ldp.AllRange(12)} {
		for _, seed := range []int64{1, 3} {
			optimize(w.Name()+" defaults", w, 60, seed)
			optimize(w.Name()+" prior", w, 60, seed, ldp.WithPrior(prior(w.Domain())))
			optimize(w.Name()+" warm starts", w, 60, seed, ldp.WithWarmStarts())
		}
	}
	optimize("AllRange(12) warm starts, 1 iteration", ldp.AllRange(12), 1, 1, ldp.WithWarmStarts())
	optimize("Histogram(16) warm starts, 1 iteration", ldp.Histogram(16), 1, 3, ldp.WithWarmStarts())
	for _, n := range []int{4, 16} {
		for _, eps := range []float64{0.5, 1, 4} {
			cases = append(cases,
				named{"Randomized Response", baselines.RandomizedResponse(n, eps).Strategy()},
				named{"Hadamard", baselines.HadamardResponse(n, eps).Strategy()})
			rp, err := baselines.RAPPOR(n, eps)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := baselines.SubsetSelection(n, eps, 0)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, named{"RAPPOR", rp.Strategy()}, named{"Subset Selection", ss.Strategy()})
		}
	}
	for _, c := range cases {
		sp, err := strategy.NewSampler(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bound := math.Exp(c.s.Eps * (1 + 1e-12))
		dists := make([][]float64, c.s.Domain())
		for u := range dists {
			dists[u] = strategy.AliasDistribution(sp, u)
		}
		for o := 0; o < c.s.Outputs(); o++ {
			lo, hi := math.Inf(1), 0.0
			for _, d := range dists {
				lo, hi = math.Min(lo, d[o]), math.Max(hi, d[o])
			}
			if (lo <= 0 && hi > 0) || hi > bound*lo {
				t.Errorf("%s (n=%d, ε=%g): output %d realizes ratio %g, bound e^ε(1+10⁻¹²) = %g",
					c.name, c.s.Domain(), c.s.Eps, o, hi/lo, bound)
				break
			}
		}
	}
}
