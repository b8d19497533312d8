// Command ldpload is the deterministic traffic simulator: it spins a live
// router+shards deployment, drives a seeded population of simulated LDP
// clients at it — zipfian time-shifting items, bursty arrivals, abandonment,
// retry storms, and a chaos schedule that kills, drains, and degrades shards
// mid-run — then scores the result against the generator's own ground truth
// and prints a correctness scorecard. It measures no latency or throughput:
// performance is the bench/ ledger's job (see bench/README.md).
//
// The deterministic sections of the scorecard (counts, estimate scoring) are
// bit-identical across repeats at the same seed; -repeat 2 proves it on the
// spot. The gate (exit status) is the scorecard's Passed(): exactly-once
// accounting (acknowledged == absorbed through every injected fault) and all
// estimates inside the repo's statistical-acceptance envelopes.
//
// Usage:
//
//	ldpload -scenario smoke -seed 1 -repeat 2
//	ldpload -scenario soak -clients 1000000 -shards 5 -out scorecard.json
//
// Shards run as child processes (this binary re-execs itself), so kill
// events are true SIGKILLs and restart recovery replays a real WAL.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	ldp "repro"
	"repro/internal/loadgen"
)

func main() {
	// A re-exec'd shard child serves and never returns; the parent falls
	// through to the simulator CLI.
	loadgen.RunShardFromEnv()

	scenario := flag.String("scenario", "smoke", "scenario preset: smoke (50k clients) or soak (100k)")
	seed := flag.Uint64("seed", 1, "scenario seed; fixes the population, ground truth, and fault ordering")
	clients := flag.Int("clients", 0, "override the preset's client count")
	shards := flag.Int("shards", 3, "number of collector shards")
	mech := flag.String("mech", "", "override mechanism: oue, olh, rappor, strategy")
	n := flag.Int("n", 0, "override domain size")
	eps := flag.Float64("eps", 0, "override privacy budget ε")
	workers := flag.Int("workers", 0, "override load-generator worker count")
	batch := flag.Int("batch", 0, "override client batch size")
	rps := flag.Float64("rps", 0, "target offered reports/sec (0 = unpaced)")
	ckptEvery := flag.Int("checkpoint-every", 5000, "shard checkpoint interval (reports)")
	fsync := flag.Bool("fsync", false, "shards fsync every WAL group commit")
	out := flag.String("out", "", "also write the scorecard to this path (empty = stdout only)")
	repeat := flag.Int("repeat", 1, "run the scenario this many times and require bit-identical deterministic sections")
	settle := flag.Duration("settle-timeout", 2*time.Minute, "bound on the post-run settle (flush + recovery) phase")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpload " + ldp.VersionString())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scn, err := buildScenario(*scenario, *seed, *clients, *mech, *n, *eps, *workers, *batch)
	if err != nil {
		fatal(err)
	}

	scratch, err := os.MkdirTemp("", "ldpload-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ldpload: "+format+"\n", args...)
	}

	var first *loadgen.Scorecard
	for i := 0; i < max(*repeat, 1); i++ {
		card, err := loadgen.Run(ctx, loadgen.RunConfig{
			Scenario: scn,
			Deploy: loadgen.DeployConfig{
				Shards:  *shards,
				BaseDir: filepath.Join(scratch, fmt.Sprintf("run-%d", i)),
				Shard: loadgen.ShardConfig{
					CheckpointEvery: *ckptEvery,
					Fsync:           *fsync,
				},
			},
			TargetRPS:     *rps,
			SettleTimeout: *settle,
			Logf:          logf,
		})
		if err != nil {
			fatal(err)
		}
		if first == nil {
			first = card
		} else if !first.DeterministicEqual(card) {
			fatal(fmt.Errorf("run %d diverged from run 0 at seed %d: counts %+v vs %+v, estimates %+v vs %+v",
				i, scn.Seed, card.Counts, first.Counts, card.Estimates, first.Estimates))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(first)
	if *out != "" {
		writeJSON(*out, first)
	}
	if !first.Passed() {
		fatal(fmt.Errorf("gate failed: exactly_once=%v (acked %d, absorbed %d), in_envelope=%v (max cell err %.2f vs %.2f, tse %.2f vs %.2f)",
			first.Counts.ExactlyOnce, first.Counts.AckedReports, first.Counts.AbsorbedReports,
			first.Estimates.InEnvelope, first.Estimates.MaxAbsCellError, first.Estimates.CellEnvelope,
			first.Estimates.TSE, first.Estimates.TSEBound))
	}
}

// buildScenario resolves the preset plus overrides and validates the result.
func buildScenario(name string, seed uint64, clients int, mech string, n int, eps float64, workers, batch int) (loadgen.Scenario, error) {
	var scn loadgen.Scenario
	switch name {
	case "smoke":
		scn = loadgen.SmokeScenario(seed)
	case "soak":
		scn = loadgen.SoakScenario(seed)
	default:
		return scn, fmt.Errorf("unknown scenario %q (want smoke or soak)", name)
	}
	if clients > 0 {
		scn.Clients = clients
	}
	if mech != "" {
		scn.Mechanism = mech
	}
	if n > 0 {
		scn.Domain = n
	}
	if eps > 0 {
		scn.Epsilon = eps
	}
	if workers > 0 {
		scn.Workers = workers
	}
	if batch > 0 {
		scn.Batch = batch
	}
	return scn, scn.Validate()
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldpload:", err)
	os.Exit(1)
}
