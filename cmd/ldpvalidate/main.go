// Command ldpvalidate audits a saved strategy file: it verifies the ε-LDP
// constraints (Proposition 2.6), reports the ε the matrix actually realizes
// and its margin below the declared one, and — given a workload — its
// variance and sample complexity.
// Deployments should run this on any strategy before shipping it to clients.
//
// Usage:
//
//	ldpvalidate -strategy prefix256.strategy
//	ldpvalidate -strategy prefix256.strategy -workload Prefix -alpha 0.01
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	ldp "repro"
)

func main() {
	path := flag.String("strategy", "", "strategy file written by ldpopt / ldp.SaveStrategy")
	wname := flag.String("workload", "", "optionally evaluate on this workload family")
	alpha := flag.Float64("alpha", 0.01, "sample-complexity target")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpvalidate " + ldp.VersionString())
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "ldpvalidate: -strategy is required")
		os.Exit(2)
	}

	f, err := os.Open(*path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, err := ldp.LoadStrategy(f)
	if err != nil {
		// LoadStrategy already validates; surface the reason.
		fatal(err)
	}
	fmt.Printf("strategy: %d outputs × %d user types, declared ε = %g\n",
		s.Outputs(), s.Domain(), s.Eps)
	fmt.Printf("ε-LDP validation (Proposition 2.6): PASS\n")

	// Realized ε: max over rows of log(max/min); a zero beside a positive
	// entry is unbounded.
	realized := 0.0
	for o := 0; o < s.Outputs(); o++ {
		row := s.Q.Row(o)
		lo, hi := row[0], row[0]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 0 {
			e := math.Inf(1)
			if lo > 0 {
				e = math.Log(hi / lo)
			}
			realized = math.Max(realized, e)
		}
	}
	fmt.Printf("realized ε: %.6f (margin %.3g below the declared ε)\n", realized, s.Eps-realized)

	if *wname != "" {
		w, err := ldp.WorkloadByName(*wname, s.Domain())
		if err != nil {
			fatal(err)
		}
		vp, err := s.Variances(w.Gram(), w.Queries())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nworkload %s (%d queries):\n", w.Name(), w.Queries())
		fmt.Printf("  per-user worst-case variance: %.6g\n", vp.Worst(1))
		fmt.Printf("  per-user average variance:    %.6g\n", vp.Avg(1))
		fmt.Printf("  sample complexity (α=%g):     %.4g users\n", *alpha, vp.SampleComplexity(*alpha))
		lb, err := ldp.LowerBoundSampleComplexity(w, s.Eps, *alpha)
		if err == nil && lb > 0 {
			fmt.Printf("  lower bound (any mechanism):  %.4g users\n", lb)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldpvalidate: %v\n", err)
	os.Exit(1)
}
