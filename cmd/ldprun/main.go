// Command ldprun demonstrates the full LDP protocol end to end: it builds a
// mechanism (an optimized strategy — loaded or optimized on the spot — or one
// of the frequency oracles), simulates a population of users randomizing
// their data through it, aggregates the reports through the sharded
// collector, and prints true vs estimated workload answers — with and without
// consistency post-processing. Every mechanism family runs through the same
// streaming Client/Collector pipeline.
//
// With -remote the same simulation drives a networked collector
// (cmd/ldpserve) instead of the in-process one: reports stream over the
// transport's framed HTTP binding and estimates are reconstructed from the
// server's snapshot. Same seed, same estimates, either way.
//
// Usage:
//
//	ldprun -workload Prefix -n 64 -eps 1.0 -users 50000
//	ldprun -mech olh -workload Prefix -n 256 -users 100000
//	ldprun -strategy prefix256.strategy -workload Prefix -n 256 -dataset MEDCOST
//	ldprun -mech oue -n 256 -remote http://10.0.0.1:8089
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	ldp "repro"
	"repro/internal/dataset"
)

func main() {
	wname := flag.String("workload", "Prefix", "workload family")
	n := flag.Int("n", 64, "domain size")
	eps := flag.Float64("eps", 1.0, "privacy budget ε")
	users := flag.Int("users", 50000, "number of simulated users")
	ds := flag.String("dataset", "HEPTH", "data shape: HEPTH, MEDCOST, NETTRACE, UNIFORM")
	mech := flag.String("mech", "optimize", "mechanism: optimize, oue, olh, rappor")
	stratPath := flag.String("strategy", "", "load a precomputed strategy instead of optimizing")
	iters := flag.Int("iters", 300, "optimizer iterations when optimizing")
	seed := flag.Int64("seed", 0, "random seed")
	remote := flag.String("remote", "", "stream reports to a remote ldpserve collector at this address")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldprun " + ldp.VersionString())
		return
	}

	w, err := ldp.WorkloadByName(*wname, *n)
	if err != nil {
		fatal(err)
	}

	// Build the mechanism's two protocol halves. Strategy mechanisms adapt a
	// matrix; oracles are their own Randomizer and Aggregator.
	var (
		rz  ldp.Randomizer
		agg ldp.Aggregator
	)
	switch strings.ToLower(*mech) {
	case "optimize", "optimized":
		var strat *ldp.Strategy
		if *stratPath != "" {
			f, err := os.Open(*stratPath)
			if err != nil {
				fatal(err)
			}
			strat, err = ldp.LoadStrategy(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("loaded strategy %dx%d (ε=%g) from %s\n",
				strat.Outputs(), strat.Domain(), strat.Eps, *stratPath)
		} else {
			fmt.Printf("optimizing strategy for %s (n=%d, ε=%g)...\n", w.Name(), *n, *eps)
			m, err := ldp.Optimize(context.Background(), w, *eps,
				ldp.WithIterations(*iters), ldp.WithSeed(*seed))
			if err != nil {
				fatal(err)
			}
			strat = m.Strategy()
		}
		if rz, err = ldp.NewRandomizer(strat); err != nil {
			fatal(err)
		}
		if agg, err = ldp.NewAggregator(strat); err != nil {
			fatal(err)
		}
	case "oue", "olh", "rappor":
		o, err := ldp.OracleByName(strings.ToUpper(*mech), *n, *eps)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("frequency oracle %s (n=%d, ε=%g)\n", o.Name(), *n, *eps)
		rz, agg = o, o
	default:
		fatal(fmt.Errorf("unknown mechanism %q", *mech))
	}

	x, err := dataset.ByName(*ds, *n, *users, *seed+1)
	if err != nil {
		fatal(err)
	}
	truth := w.MatVec(x)

	// Client side: every user randomizes locally; the collector — in-process
	// and sharded, or a remote ldpserve reached over the framed HTTP
	// transport — absorbs the reports.
	client, err := ldp.NewClient(rz)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed + 2))
	// One drive loop serves both collectors — only the ingest sink differs,
	// which is what keeps the remote and local paths seed-identical.
	drive := func(ingest func(ldp.Report) error) {
		for u, cnt := range x {
			for j := 0; j < int(cnt); j++ {
				rep, err := client.Randomize(u, rng)
				if err != nil {
					fatal(err)
				}
				if err := ingest(rep); err != nil {
					fatal(err)
				}
			}
		}
	}
	// One Estimator answers every snapshot — the in-process collector's, the
	// remote server's, or (see ldpquery -servers) a merge of several shards'.
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		fatal(err)
	}
	var snap ldp.Snapshot
	if *remote != "" {
		ctx := context.Background()
		rcol, err := ldp.NewRemoteCollector(*remote, agg)
		if err != nil {
			fatal(err)
		}
		// Refuse to stream through a server aggregating under a different
		// configuration (the digest pins the exact strategy matrix).
		if err := rcol.Verify(ctx); err != nil {
			fatal(err)
		}
		drive(func(rep ldp.Report) error { return rcol.Ingest(ctx, rep) })
		if err := rcol.Flush(ctx); err != nil {
			fatal(err)
		}
		if snap, err = rcol.Snap(ctx); err != nil {
			fatal(err)
		}
		fmt.Printf("streamed %d randomized reports (ε=%g each) to %s (snapshot epoch %d)\n",
			int(snap.Count()), client.Epsilon(), *remote, snap.Epoch())
	} else {
		col, err := ldp.NewCollector(agg, w, 0)
		if err != nil {
			fatal(err)
		}
		drive(col.Ingest)
		snap = col.Snap()
		fmt.Printf("collected %d randomized reports (ε=%g each, %d shards)\n",
			int(snap.Count()), client.Epsilon(), col.Shards())
	}
	unbiased, err := est.Answers(snap)
	if err != nil {
		fatal(err)
	}
	consistent, err := est.ConsistentAnswers(snap)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\n%-8s %14s %14s %14s\n", "query", "truth", "unbiased", "consistent")
	show := len(truth)
	if show > 12 {
		show = 12
	}
	for i := 0; i < show; i++ {
		fmt.Printf("%-8d %14.1f %14.1f %14.1f\n", i, truth[i], unbiased[i], consistent[i])
	}
	if len(truth) > show {
		fmt.Printf("... (%d more queries)\n", len(truth)-show)
	}
	fmt.Printf("\nroot-mean-squared error: unbiased %.2f, consistent %.2f\n",
		rmse(truth, unbiased), rmse(truth, consistent))
}

func rmse(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldprun: %v\n", err)
	os.Exit(1)
}
