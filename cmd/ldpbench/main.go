// Command ldpbench regenerates the paper's experiments as text tables.
// Performance is measured by the ledger in bench/ (see bench/README.md).
//
// Usage:
//
//	ldpbench -exp fig1              # Figure 1: sample complexity vs ε
//	ldpbench -exp fig2              # Figure 2: sample complexity vs n
//	ldpbench -exp fig3a             # Figure 3a: benchmark datasets
//	ldpbench -exp fig3b             # Figure 3b: initialization robustness
//	ldpbench -exp fig3c             # Figure 3c: per-iteration scalability
//	ldpbench -exp fig4              # Figure 4: WNNLS extension
//	ldpbench -exp table1            # Table 1: classical mechanisms as strategies
//	ldpbench -exp all               # everything
//	ldpbench -exp fig1 -full        # paper-scale parameters (slow)
//	ldpbench -exp fig1 -workers 4   # bound the sweep worker pool (0 = all CPUs)
package main

import (
	"flag"
	"fmt"
	"os"

	ldp "repro"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1, fig2, fig3a, fig3b, fig3c, fig4, table1, all")
	full := flag.Bool("full", false, "paper-scale parameters (much slower)")
	seed := flag.Int64("seed", 0, "random seed")
	iters := flag.Int("iters", 0, "optimizer iterations (0 = default)")
	alpha := flag.Float64("alpha", 0.01, "target normalized variance for sample complexity")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpbench " + ldp.VersionString())
		return
	}

	cfg := experiments.Config{Alpha: *alpha, Full: *full, Seed: *seed, Iters: *iters, Workers: *workers}
	out := os.Stdout

	run := func(name string) error {
		switch name {
		case "fig1":
			fmt.Fprintln(out, "== Figure 1: sample complexity vs epsilon ==")
			sweeps, err := experiments.FigureEpsilon(cfg)
			if err != nil {
				return err
			}
			experiments.WriteSweeps(out, sweeps, "epsilon")
			sum := experiments.Improvements(sweeps)
			fmt.Fprintf(out, "\nOptimized vs best competitor: ratio %.2fx to %.2fx (losses beyond 5%%: %d)\n",
				sum.MinRatio, sum.MaxRatio, sum.Losses)
		case "fig2":
			fmt.Fprintln(out, "== Figure 2: sample complexity vs domain size ==")
			sweeps, err := experiments.FigureDomain(cfg)
			if err != nil {
				return err
			}
			experiments.WriteSweeps(out, sweeps, "domain n")
		case "fig3a":
			fmt.Fprintln(out, "== Figure 3a: sample complexity on benchmark datasets (Prefix) ==")
			rows, err := experiments.FigureDatasets(cfg)
			if err != nil {
				return err
			}
			experiments.WriteDatasets(out, rows)
		case "fig3b":
			fmt.Fprintln(out, "== Figure 3b: initialization robustness (variance ratio to best found) ==")
			pts, err := experiments.FigureInit(cfg)
			if err != nil {
				return err
			}
			experiments.WriteInit(out, pts)
		case "fig3c":
			fmt.Fprintln(out, "== Figure 3c: per-iteration optimization time ==")
			pts, err := experiments.FigureScalability(cfg)
			if err != nil {
				return err
			}
			experiments.WriteScalability(out, pts)
		case "fig4":
			fmt.Fprintln(out, "== Figure 4: WNNLS extension (normalized variance) ==")
			rows, err := experiments.FigureWNNLS(cfg)
			if err != nil {
				return err
			}
			experiments.WriteWNNLS(out, rows)
		case "table1":
			fmt.Fprintln(out, "== Table 1: classical mechanisms as strategy matrices ==")
			n := 8
			if cfg.Full {
				n = 16
			}
			rows, err := experiments.Table1(n, 1.0)
			if err != nil {
				return err
			}
			experiments.WriteTable1(out, rows)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintln(out)
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig4"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "ldpbench: %v\n", err)
			os.Exit(1)
		}
	}
}
