// Network monitoring: an ISP wants latency percentiles and hot-spot windows
// from client-reported round-trip times, without learning any individual's
// latency. Latencies are bucketed into a 128-cell domain; the analyst's
// workload mixes all range queries (for arbitrary percentile lookups) with
// heavily-weighted width-8 sliding windows (for hot-spot detection). This
// exercises the library's weighted-workload support (Section 1: the workload
// expresses "the exact queries they care about most, and their relative
// importance") and the WNNLS consistency extension in the sparse-data regime.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	ldp "repro"
)

func main() {
	const (
		n     = 128
		eps   = 1.0
		users = 20000
	)
	// Weighted union: ranges matter, windows matter 3× more.
	w := ldp.Stacked("Ranges+Windows",
		[]ldp.Workload{ldp.AllRange(n), ldp.WidthRange(n, 8)},
		[]float64{1, 3},
	)
	fmt.Printf("workload: %d queries over %d latency buckets\n", w.Queries(), n)

	mech, err := ldp.Optimize(context.Background(), w, eps,
		ldp.WithIterations(250), ldp.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	lb, err := ldp.LowerBoundObjective(w, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized mechanism objective %.4g (≥ SVD lower bound %.4g, gap %.2fx)\n",
		mech.Objective, lb, mech.Objective/lb)

	// Latency population: bimodal — a fast path around bucket 20 and a
	// congested tail around bucket 90.
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := 0; i < users; i++ {
		var b int
		if rng.Float64() < 0.7 {
			b = int(20 + 6*rng.NormFloat64())
		} else {
			b = int(90 + 10*rng.NormFloat64())
		}
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		x[b]++
	}

	// Full protocol through the streaming pipeline, then WNNLS for
	// consistency.
	rz, err := ldp.NewRandomizer(mech.Strategy())
	if err != nil {
		log.Fatal(err)
	}
	client, err := ldp.NewClient(rz)
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldp.NewAggregator(mech.Strategy())
	if err != nil {
		log.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, w, 1)
	if err != nil {
		log.Fatal(err)
	}
	for u, cnt := range x {
		for j := 0; j < int(cnt); j++ {
			rep, err := client.Randomize(u, rng)
			if err != nil {
				log.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				log.Fatal(err)
			}
		}
	}
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		log.Fatal(err)
	}
	consistent, err := est.ConsistentAnswers(col.Snap())
	if err != nil {
		log.Fatal(err)
	}
	truth := w.MatVec(x)

	// Percentiles from range queries [0, k] (rows k of the AllRange block
	// with start 0 are the first n rows at weight 1).
	fmt.Println("\nlatency percentiles (bucket index):")
	for _, pct := range []float64{0.5, 0.9, 0.99} {
		fmt.Printf("  p%-4g truth: %3d   estimate: %3d\n",
			100*pct, percentile(truth[:n], float64(users), pct), percentile(consistent[:n], float64(users), pct))
	}

	// Hot-spot: the heaviest width-8 window lives in the weighted block.
	winTruth := truth[w.Queries()-(n-8+1):]
	winEst := consistent[w.Queries()-(n-8+1):]
	ti, ei := argmax(winTruth), argmax(winEst)
	fmt.Printf("\nhot-spot window: truth [%d,%d], estimate [%d,%d]\n", ti, ti+7, ei, ei+7)
	if int(math.Abs(float64(ti-ei))) <= 8 {
		fmt.Println("hot-spot localized within one window width under LDP ✓")
	}
}

// percentile finds the first prefix bucket whose CDF value reaches p·total.
func percentile(prefixAnswers []float64, total, p float64) int {
	for k, v := range prefixAnswers {
		if v >= p*total {
			return k
		}
	}
	return len(prefixAnswers) - 1
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
