// Command ldpfed is the multi-collector fan-in driver: it polls several
// ldpserve shards that aggregate the same mechanism, verifies each shard's
// mechanism identity (digest included — two strategy matrices sharing
// name/domain/ε are still different channels), merges their snapshots, and
// emits one estimate, exactly as if every report had been ingested into a
// single collector. The accumulator contract makes the merge an element-wise
// sum, so a full-coverage fan-in answer is bit-identical to a
// single-collector run over the same reports.
//
// The fan-in is failure-aware: shards live in a health-gated Fleet, so a
// shard that is down contributes its last-good snapshot (marked stale in the
// coverage line) or becomes an explicit coverage gap, instead of killing the
// merge or silently undercounting. -quorum N refuses to print an estimate
// covering fewer than N shards; -no-stale turns the stale fallback off.
//
// Usage:
//
//	ldpfed -servers http://10.0.0.1:8089,http://10.0.0.2:8089 -mech oue -n 256 -eps 1.0
//	ldpfed -servers shardA:8089,shardB:8089 -strategy prefix64.strategy -workload Prefix
//	ldpfed -servers shardA:8089,shardB:8089 -mech rappor -n 64 -watch 15s -quorum 2
//
// Each shard line reports its contribution (fresh, stale, or missing), count,
// and snapshot epoch, so a degraded or diverged shard is visible next to its
// peers; a shard whose count diverges from its peers by more than -drift (the
// signature of a shard restored from a stale checkpoint) is called out
// explicitly. With -watch the command keeps running: it re-polls the shards'
// /healthz on the interval and re-merges only when some shard's snapshot
// epoch advances. A flapping shard, a below-quorum pass, or a detected epoch
// regression logs and retries next tick rather than killing the watcher.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ldp "repro"
	"repro/internal/mechflag"
)

// fed is the merge pipeline shared by the one-shot and -watch modes, with
// its outputs injectable so tests drive the loop directly.
type fed struct {
	fleet   *ldp.Fleet
	est     *ldp.Estimator
	info    ldp.MechanismInfo
	level   float64
	drift   float64
	window  uint64
	timeout time.Duration
	out     io.Writer
	errw    io.Writer

	// lastEpochs is endpoint→epoch as of the last successful merge — what
	// the cheap watch round compares /healthz against.
	lastEpochs map[string]uint64
}

func main() {
	servers := flag.String("servers", "", "comma-separated ldpserve endpoints to merge")
	wname := flag.String("workload", "Histogram", "workload family to answer")
	mech := flag.String("mech", "", "build a mechanism in place: oue, olh, rappor")
	n := flag.Int("n", 64, "domain size (with -mech)")
	eps := flag.Float64("eps", 1.0, "privacy budget ε (with -mech)")
	stratPath := flag.String("strategy", "", "reconstruct under a strategy wire file (SaveStrategy)")
	oraclePath := flag.String("oracle", "", "reconstruct under an oracle wire file (SaveOracle)")
	level := flag.Float64("ci", 0.95, "confidence level for the interval column (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-pass deadline for polling the shards")
	watch := flag.Duration("watch", 0, "continuous mode: re-poll /healthz on this interval and re-merge when a shard's epoch advances (0 = one shot)")
	drift := flag.Float64("drift", 10, "warn when the largest shard count exceeds the smallest by this ratio — a stale-checkpoint recovery symptom (0 disables)")
	quorum := flag.Int("quorum", 0, "refuse to print an estimate covering fewer than this many shards (0 = any non-empty coverage)")
	noStale := flag.Bool("no-stale", false, "disable the stale-snapshot fallback: an unreachable shard becomes a coverage gap instead of a stale contribution")
	window := flag.Uint64("window", 0, "also report a windowed estimate over the last N epochs: the shards' retained history supplies the baseline snapshot (0 disables; needs -data-dir shards)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpfed " + ldp.VersionString())
		return
	}

	endpoints := splitServers(*servers)
	if len(endpoints) == 0 {
		fatal(errors.New("at least one -servers endpoint is required"))
	}
	agg, err := mechflag.Build(*mech, *n, *eps, *stratPath, *oraclePath)
	if err != nil {
		fatal(err)
	}
	w, err := ldp.WorkloadByName(*wname, agg.Domain())
	if err != nil {
		fatal(err)
	}
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		fatal(err)
	}
	fleet, err := ldp.NewFleet(agg, w,
		ldp.WithFleetQuorum(*quorum),
		ldp.WithFleetStaleFallback(!*noStale))
	if err != nil {
		fatal(err)
	}

	f := &fed{
		fleet: fleet, est: est, info: ldp.MechanismInfoOf(agg),
		level: *level, drift: *drift, window: *window, timeout: *timeout,
		out: os.Stdout, errw: os.Stderr,
		lastEpochs: make(map[string]uint64),
	}
	regCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	// Register every shard up front: a mismatched mechanism is fatal
	// configuration in either mode, before a byte of state moves; a shard
	// that is merely down right now is admitted as a coverage gap and joins
	// the merge when it comes back.
	for _, ep := range endpoints {
		if err := fleet.Register(regCtx, ep); err != nil {
			cancel()
			fatal(err)
		}
	}
	cancel()

	if err := f.mergeAndReport(context.Background()); err != nil {
		fatal(err)
	}
	if *watch <= 0 {
		return
	}
	f.watch(context.Background(), *watch)
}

// watch is the continuous mode: one cheap /healthz round per tick, a full
// snapshot pull + re-merge only when some shard observed a new state. Any
// failure — a flapping shard, a below-quorum pass, an epoch regression —
// logs and retries next tick rather than killing the watcher. It returns
// when ctx is done.
func (f *fed) watch(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if !f.epochsAdvanced(ctx) {
				continue
			}
			if err := f.mergeAndReport(ctx); err != nil {
				fmt.Fprintf(f.errw, "ldpfed: %v (retrying in %s)\n", err, interval)
			}
		}
	}
}

// epochsAdvanced runs the cheap watch round: true when any reachable shard's
// /healthz epoch differs from the one it contributed to the last merge —
// including a shard reappearing after an outage. Unreachable shards are
// skipped (their epoch cannot have been observed to move).
func (f *fed) epochsAdvanced(ctx context.Context) bool {
	pctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	for ep, epoch := range f.fleet.Epochs(pctx) {
		if epoch != f.lastEpochs[ep] {
			return true
		}
	}
	return false
}

// mergeAndReport pulls one degraded-tolerant merged snapshot, reports the
// per-shard coverage, warns on count drift, and prints the estimate table.
func (f *fed) mergeAndReport(ctx context.Context) error {
	mctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()

	merged, cov, err := f.fleet.Snap(mctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(f.out, "%-32s %8s %12s %8s\n", "shard", "status", "count", "epoch")
	for _, sc := range cov.Shards {
		fmt.Fprintf(f.out, "%-32s %8s %12d %8d\n", sc.Endpoint, sc.Status, int(sc.Count), sc.Epoch)
		if sc.Err != "" {
			// The degradation reason — an unreachable shard, an epoch
			// regression the snapshot path refused — is operator-facing.
			fmt.Fprintf(f.errw, "ldpfed: shard %s %s: %s\n", sc.Endpoint, sc.Status, sc.Err)
		}
	}
	f.warnDrift(cov)
	if !cov.Complete() {
		fmt.Fprintf(f.errw, "ldpfed: WARNING: partial merge, coverage %s — the estimate undercounts the missing/stale shards' recent reports\n", cov)
	}

	// Commit the watch epochs only after a successful pass, and only for the
	// shards that contributed fresh state — a stale contribution leaves its
	// epoch un-advanced so the next tick re-pulls when the shard returns.
	for _, sc := range cov.Shards {
		if sc.Status == ldp.CoverageFresh {
			f.lastEpochs[sc.Endpoint] = sc.Epoch
		}
	}
	fmt.Fprintf(f.out, "\nmerged coverage %s: %d reports under %s (n=%d, ε=%g)\n",
		cov, int(merged.Count()), f.info.Mechanism, f.info.Domain, f.info.Epsilon)

	unbiased, err := f.est.Answers(merged)
	if err != nil {
		return err
	}
	consistent, err := f.est.ConsistentAnswers(merged)
	if err != nil {
		return err
	}
	// Intervals are best-effort: a mechanism without a closed-form per-query
	// variance still gets its point estimates.
	var intervals []ldp.Interval
	if f.level > 0 {
		if intervals, err = f.est.ConfidenceIntervals(merged, f.level); err != nil {
			fmt.Fprintf(f.errw, "ldpfed: confidence intervals unavailable: %v\n", err)
		}
	}

	fmt.Fprintf(f.out, "\n%-8s %14s %14s", "query", "unbiased", "consistent")
	if intervals != nil {
		fmt.Fprintf(f.out, "   %g%% interval", 100*f.level)
	}
	fmt.Fprintln(f.out)
	show := len(unbiased)
	if show > 12 {
		show = 12
	}
	for i := 0; i < show; i++ {
		fmt.Fprintf(f.out, "%-8d %14.1f %14.1f", i, unbiased[i], consistent[i])
		if intervals != nil {
			fmt.Fprintf(f.out, "   [%.1f, %.1f]", intervals[i].Low, intervals[i].High)
		}
		fmt.Fprintln(f.out)
	}
	if len(unbiased) > show {
		fmt.Fprintf(f.out, "... (%d more queries)\n", len(unbiased)-show)
	}
	f.reportWindow(mctx, merged)
	return nil
}

// reportWindow prints the windowed estimate over the trailing -window epochs:
// the shards' retained history supplies a merged baseline snapshot at (or
// nearest below) the window's start, and the diff against the live merge is
// exactly the reports that arrived inside the window. Degradation — a shard
// with no history, a baseline epoch coarsened away everywhere — logs and skips
// the table; the live estimate above already printed.
func (f *fed) reportWindow(ctx context.Context, merged ldp.Snapshot) {
	if f.window == 0 {
		return
	}
	if merged.Epoch() <= f.window {
		fmt.Fprintf(f.errw, "ldpfed: window of %d epochs not yet filled (merged epoch %d) — skipping the windowed estimate\n", f.window, merged.Epoch())
		return
	}
	base := merged.Epoch() - f.window
	hist, hcov, err := f.fleet.SnapAt(ctx, base)
	if err != nil {
		fmt.Fprintf(f.errw, "ldpfed: windowed estimate unavailable (no usable history at epoch %d): %v\n", base, err)
		return
	}
	answers, err := f.est.WindowAnswers(merged, hist)
	if err != nil {
		fmt.Fprintf(f.errw, "ldpfed: windowed estimate unavailable: %v\n", err)
		return
	}
	fmt.Fprintf(f.out, "\nwindow (%d, %d] over %d reports (baseline coverage %s):\n",
		hist.Epoch(), merged.Epoch(), int(merged.Count()-hist.Count()), hcov)
	show := len(answers)
	if show > 12 {
		show = 12
	}
	fmt.Fprintf(f.out, "%-8s %14s\n", "query", "windowed")
	for i := 0; i < show; i++ {
		fmt.Fprintf(f.out, "%-8d %14.1f\n", i, answers[i])
	}
	if len(answers) > show {
		fmt.Fprintf(f.out, "... (%d more queries)\n", len(answers)-show)
	}
}

// warnDrift flags a shard population that has diverged past the configured
// ratio — exactly what a shard silently restored from a stale checkpoint
// looks like next to its peers. Counts need not be equal (shards can serve
// uneven populations); an order-of-magnitude split warrants an operator
// look. Missing shards are excluded — their gap is already reported.
func (f *fed) warnDrift(cov ldp.Coverage) {
	if f.drift <= 0 {
		return
	}
	ratio, minS, maxS := cov.DriftRatio()
	if ratio > f.drift {
		fmt.Fprintf(f.errw,
			"ldpfed: WARNING: shard counts diverge beyond the %gx drift threshold: %s holds %d reports, %s only %d — %s may have recovered from a stale checkpoint or lost its state\n",
			f.drift, maxS.Endpoint, int(maxS.Count), minS.Endpoint, int(minS.Count), minS.Endpoint)
	}
}

// splitServers parses the comma-separated endpoint list, dropping empties.
func splitServers(s string) []string {
	var out []string
	for _, ep := range strings.Split(s, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			out = append(out, ep)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldpfed: %v\n", err)
	os.Exit(1)
}
