// Geo heatmap: a mobility service wants coarse pick-up density over a city
// grid under local differential privacy — every rectangular zone count on a
// 16×16 grid. The workload is the Kronecker product AllRange ⊗ AllRange
// (33 856 rectangle queries over 256 cells), and because the city's demand is
// concentrated downtown, the mechanism is optimized against a prior
// (footnote 2 of the paper): accuracy is spent where the riders actually are.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	ldp "repro"
)

const (
	side  = 8
	n     = side * side
	eps   = 1.0
	users = 30000
)

func main() {
	w := ldp.Product(ldp.AllRange(side), ldp.AllRange(side))
	fmt.Printf("workload: %d rectangle queries over a %dx%d grid\n", w.Queries(), side, side)

	// Demand prior: a Gaussian bump around downtown (5, 3).
	prior := make([]float64, n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			dr, dc := float64(r-5), float64(c-3)
			prior[r*side+c] = math.Exp(-(dr*dr + dc*dc) / 3)
		}
	}

	mech, err := ldp.Optimize(context.Background(), w, eps,
		ldp.WithPrior(prior), ldp.WithIterations(200), ldp.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	uniformMech, err := ldp.Optimize(context.Background(), w, eps,
		ldp.WithIterations(200), ldp.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}

	// Expected error on prior-shaped data, from the closed-form Theorem 3.4.
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(12))
	cdf := make([]float64, n)
	run := 0.0
	for i, p := range prior {
		run += p
		cdf[i] = run
	}
	for i := 0; i < users; i++ {
		u := rng.Float64() * run
		lo := 0
		for lo < n-1 && cdf[lo] < u {
			lo++
		}
		x[lo]++
	}
	vp, err := ldp.Evaluate(mech, w)
	if err != nil {
		log.Fatal(err)
	}
	vu, err := ldp.Evaluate(uniformMech, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected total squared error on downtown-shaped data:\n")
	fmt.Printf("  prior-weighted mechanism: %.4g\n", vp.OnData(x))
	fmt.Printf("  uniform mechanism:        %.4g  (%.2fx worse)\n",
		vu.OnData(x), vu.OnData(x)/vp.OnData(x))

	// Run the protocol and read out a few rectangles.
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
	reader, err := ldp.NewEstimator(agg, w)
	if err != nil {
		log.Fatal(err)
	}
	est, err := reader.ConsistentAnswers(col.Snap())
	if err != nil {
		log.Fatal(err)
	}
	truth := w.MatVec(x)

	// Rectangle [r1,r2]×[c1,c2] index into the Kronecker row ordering.
	rangeIdx := func(i, j int) int { return i*side - i*(i-1)/2 + (j - i) }
	rect := func(r1, r2, c1, c2 int) int {
		return rangeIdx(r1, r2)*(side*(side+1)/2) + rangeIdx(c1, c2)
	}
	fmt.Println("\nzone counts (riders):")
	zones := []struct {
		name           string
		r1, r2, c1, c2 int
	}{
		{"downtown core", 4, 6, 2, 4},
		{"north half", 0, 3, 0, 7},
		{"whole city", 0, 7, 0, 7},
		{"far suburb", 0, 1, 6, 7},
	}
	for _, z := range zones {
		q := rect(z.r1, z.r2, z.c1, z.c2)
		fmt.Printf("  %-14s truth %7.0f  estimate %7.0f\n", z.name, truth[q], est[q])
	}
}
