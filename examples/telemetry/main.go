// Telemetry: a software vendor collects feature-flag usage from clients under
// local differential privacy. Each user's state is d binary flags (a point in
// {0,1}^d) and the analyst wants every pairwise co-occurrence table — the
// 2-way marginals workload. This is the marginal-release setting of Cormode
// et al. [12] that the paper's Fourier baseline targets; here the optimized
// mechanism adapts to the same workload automatically and does better.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	ldp "repro"
)

const (
	d   = 5 // feature flags per client
	n   = 1 << d
	eps = 1.0
)

func main() {
	w := ldp.KWayMarginals(d, 2)
	fmt.Printf("workload: all 2-way marginals over %d flags → %d queries on a domain of %d\n",
		d, w.Queries(), n)

	// Optimize, and compare against the mechanism purpose-built for
	// marginals (Fourier) and against randomized response.
	mech, err := ldp.Optimize(context.Background(), w, eps,
		ldp.WithIterations(300), ldp.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fourier, err := ldp.Fourier(d, eps, 2)
	if err != nil {
		log.Fatal(err)
	}
	rr := ldp.RandomizedResponse(n, eps)
	const alpha = 0.01
	for _, m := range []ldp.Mechanism{mech, fourier, rr} {
		sc, err := ldp.SampleComplexity(m, w, alpha)
		if err != nil {
			log.Fatalf("%s: %v", m.Name(), err)
		}
		fmt.Printf("  %-22s needs %8.0f users for α=%.2f\n", m.Name(), sc, alpha)
	}

	// Simulate a fleet: flags are correlated (flag 1 implies flag 0 with high
	// probability), which is exactly what marginal queries reveal.
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	const users = 40000
	for i := 0; i < users; i++ {
		var state int
		if rng.Float64() < 0.6 {
			state |= 1 // flag 0 popular
			if rng.Float64() < 0.8 {
				state |= 2 // flag 1 mostly со-occurs with flag 0
			}
		}
		for b := 2; b < d; b++ {
			if rng.Float64() < 0.15 {
				state |= 1 << b
			}
		}
		x[state]++
	}

	rz, err := ldp.NewRandomizer(mech.Strategy())
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldp.NewAggregator(mech.Strategy())
	if err != nil {
		log.Fatal(err)
	}
	// The fleet reports into two regional collectors (say, one per ingestion
	// site); each collector spreads its workers' arrivals across its shards.
	const regions = 2
	const workers = 4
	cols := make([]*ldp.Collector, regions)
	for r := range cols {
		if cols[r], err = ldp.NewCollector(agg, w, 0); err != nil {
			log.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			col := cols[wk%regions]
			wrng := rand.New(rand.NewSource(int64(100 + wk)))
			for state := wk; state < n; state += workers {
				for j := 0; j < int(x[state]); j++ {
					rep, err := rz.Randomize(state, wrng)
					if err != nil {
						log.Fatal(err)
					}
					if err := col.Ingest(rep); err != nil {
						log.Fatal(err)
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	// Fan-in: each region freezes one immutable Snapshot, Merge sums them
	// (rejecting a mechanism mismatch by digest), and a single Estimator
	// answers the merged view exactly as if one collector had seen the whole
	// fleet.
	snap := cols[0].Snap()
	for _, c := range cols[1:] {
		if snap, err = snap.Merge(c.Snap()); err != nil {
			log.Fatal(err)
		}
	}
	estimator, err := ldp.NewEstimator(agg, w)
	if err != nil {
		log.Fatal(err)
	}
	est, err := estimator.ConsistentAnswers(snap)
	if err != nil {
		log.Fatal(err)
	}
	truth := w.MatVec(x)

	// The (flag0, flag1) joint table is the first marginal block: subset
	// {0,1} is the first 2-subset in ascending bitmask order.
	fmt.Printf("\njoint usage of flag0 and flag1 (%d users):\n", users)
	labels := []string{"00", "10", "01", "11"}
	for t := 0; t < 4; t++ {
		fmt.Printf("  flags=%s  truth %7.0f  estimate %7.0f\n", labels[t], truth[t], est[t])
	}
	// Sanity: the strong correlation must be visible through the noise.
	if est[3] < est[2] {
		fmt.Println("  warning: correlation not recovered (unexpectedly high noise)")
	} else {
		fmt.Println("  correlation flag1⇒flag0 recovered under LDP ✓")
	}
}
