// Command ldpquery runs a workload (or a whole workload file) against a live
// collection deployment and prints per-query answers, variances, and
// confidence intervals.
//
// It speaks two shapes of deployment:
//
//   - -server URL: one POST /query against a shard (ldpserve) or a router
//     (ldprouter). The server's query engine resolves the workload, answers
//     over its current — for a router, merged — snapshot, and streams result
//     frames; rows are printed as they arrive, never collected. The client
//     needs no mechanism configuration: the server owns the reconstruction.
//
//   - -servers a,b,c: client-side fan-in. The command builds the mechanism
//     locally (-mech / -strategy / -oracle), registers the shards in a
//     health-gated fleet, pulls one merged snapshot per pass, and answers
//     every requested workload through an EstimatorPool's estimator with the
//     streams a server's POST /query uses, so the rows are the ones -server
//     prints, bit for bit, and a level outside (0,1) is refused the same way.
//
// A fan-in pass prints what it covers before its rows: a "# coverage" line
// and one "# shard" line per shard (fresh, stale or missing; count; epoch).
// A mismatched mechanism is fatal at registration; a shard that is down
// contributes its last-good snapshot (stale) or becomes a coverage gap, and
// its reason, a partial merge and a count split beyond -drift (the signature
// of a shard restored from a stale checkpoint) are warned about on stderr.
// -quorum N refuses a merge covering fewer than N shards; -no-stale turns the
// stale fallback off. -as-of E answers over the shards' retained history at
// epoch E; -window N answers over the reports of the last N epochs, the
// merged snapshot minus the fleet's retained history N epochs back. -watch D
// keeps running: every D it polls the shards' /healthz and runs a new pass
// when some shard's epoch advanced; a failed pass is logged and retried on
// the next tick.
//
// Workloads come from -workloads (comma-separated family names) and/or -file
// (one name per line, '#' comments):
//
//	ldpquery -server http://router:8090 -workloads Prefix -level 0.95
//	ldpquery -servers shardA:8089,shardB:8089 -mech oue -n 256 \
//	    -file workloads.txt -variance
//	ldpquery -servers shardA:8089,shardB:8089 -mech rappor -n 64 \
//	    -workloads Histogram -watch 15s -quorum 2 -window 500
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	ldp "repro"
	"repro/internal/mechflag"
	"repro/internal/transport"
)

// config is the parsed command line.
type config struct {
	server, servers        string
	mech, strategy, oracle string
	n                      int
	eps                    float64
	workloads, file        string
	level                  float64
	variance, checkDigest  bool
	head                   int
	timeout                time.Duration
	asOf, window           uint64
	watch                  time.Duration
	drift                  float64
	quorum                 int
	noStale, version       bool
}

// fanInOnly are the flags that configure client-side fan-in; -server mode
// refuses them instead of ignoring them.
var fanInOnly = []string{"mech", "n", "eps", "strategy", "oracle", "as-of", "window", "watch", "drift", "quorum", "no-stale"}

func main() {
	c, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if c.version {
		fmt.Println("ldpquery " + ldp.VersionString())
		return
	}
	names, err := workloadNames(c.workloads, c.file)
	if err != nil {
		fatal(err)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no workloads requested: set -workloads and/or -file"))
	}
	if c.server != "" {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		defer cancel()
		err = queryServer(ctx, os.Stdout, c.server, names, c.level, c.variance, c.checkDigest, c.head)
	} else {
		err = runFanIn(c, names)
	}
	if err != nil {
		fatal(err)
	}
}

// parseArgs reads the command line and refuses flag combinations that have
// no meaning, before anything touches the network.
func parseArgs(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("ldpquery", flag.ExitOnError)
	fs.StringVar(&c.server, "server", "", "query one endpoint (shard or router) over POST /query")
	fs.StringVar(&c.servers, "servers", "", "comma-separated shard URLs for client-side fan-in (requires a mechanism)")
	fs.StringVar(&c.mech, "mech", "", "mechanism for fan-in mode: oue, olh, rappor")
	fs.IntVar(&c.n, "n", 64, "domain size (fan-in mode with -mech)")
	fs.Float64Var(&c.eps, "eps", 1.0, "privacy budget ε (fan-in mode with -mech)")
	fs.StringVar(&c.strategy, "strategy", "", "use a strategy wire file (fan-in mode)")
	fs.StringVar(&c.oracle, "oracle", "", "use an oracle wire file (fan-in mode)")
	fs.StringVar(&c.workloads, "workloads", "", "comma-separated workload family names")
	fs.StringVar(&c.file, "file", "", "workload file: one family name per line, '#' comments")
	fs.Float64Var(&c.level, "level", 0, "two-sided confidence level in (0,1); adds CI columns")
	fs.BoolVar(&c.variance, "variance", false, "add the per-query variance column")
	fs.BoolVar(&c.checkDigest, "check-digest", true, "send the canonical workload digest so the server proves it resolved the same workload (server mode)")
	fs.IntVar(&c.head, "head", 0, "print only the first N rows per workload (0 = all)")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Minute, "deadline for a -server run, and for fan-in registration and each fan-in pass")
	fs.Uint64Var(&c.asOf, "as-of", 0, "answer over the shards' retained history at this epoch instead of live state (fan-in mode); each shard serves its newest retained epoch at or below the bound")
	fs.Uint64Var(&c.window, "window", 0, "answer over the reports of the last N epochs: the shards' retained history supplies the baseline snapshot (fan-in mode; 0 disables; needs -data-dir shards)")
	fs.DurationVar(&c.watch, "watch", 0, "continuous fan-in: poll /healthz on this interval and re-answer when a shard's epoch advances (0 = one shot)")
	fs.Float64Var(&c.drift, "drift", 10, "warn when the largest shard count exceeds the smallest by this ratio — a stale-checkpoint recovery symptom (fan-in mode; 0 disables)")
	fs.IntVar(&c.quorum, "quorum", 0, "refuse a merge covering fewer than this many shards (fan-in mode; 0 = any non-empty coverage)")
	fs.BoolVar(&c.noStale, "no-stale", false, "disable the stale-snapshot fallback: an unreachable shard becomes a coverage gap instead of a stale contribution (fan-in mode)")
	fs.BoolVar(&c.version, "version", false, "print version and exit")
	if err := fs.Parse(args); err != nil || c.version {
		return c, err
	}
	if (c.server == "") == (c.servers == "") {
		return c, fmt.Errorf("set exactly one of -server (remote query) or -servers (client-side fan-in)")
	}
	var fanIn []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(fanInOnly, f.Name) {
			fanIn = append(fanIn, "-"+f.Name)
		}
	})
	if c.server != "" && len(fanIn) > 0 {
		return c, fmt.Errorf("%s: fan-in mode (-servers) only; POST /query always answers over one endpoint's live state", strings.Join(fanIn, ", "))
	}
	if c.watch > 0 && c.asOf != 0 {
		return c, fmt.Errorf("-watch re-answers as live epochs advance and -as-of answers over one past epoch: set one of them")
	}
	return c, nil
}

// workloadNames merges the -workloads list with the -file lines.
func workloadNames(csv, path string) ([]string, error) {
	var names []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names = append(names, s)
		}
	}
	if path == "" {
		return names, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	return names, sc.Err()
}

// queryServer answers each workload with one POST /query, printing rows as
// the result frames stream in.
func queryServer(ctx context.Context, out io.Writer, server string, names []string, level float64, variance, checkDigest bool, head int) error {
	c, err := transport.NewClient(server, nil)
	if err != nil {
		return err
	}
	var domain int
	if checkDigest {
		// Resolving the workloads locally needs the domain; ask the server.
		h, err := c.Healthz(ctx)
		if err != nil {
			return err
		}
		domain = h.Domain
	}
	for _, name := range names {
		req := transport.QueryRequest{Workload: name, Level: level, WantVariance: variance || level > 0, WantCI: level > 0}
		if checkDigest {
			w, err := ldp.WorkloadByName(name, domain)
			if err != nil {
				return err
			}
			req.Domain = domain
			req.Digest = ldp.WorkloadDigest(w)
		}
		printed := 0
		info, err := c.PostQuery(ctx, req, func(row transport.QueryRow) bool {
			if head > 0 && printed >= head {
				return false
			}
			printed++
			printRow(out, row, req.WantVariance, req.WantCI)
			return true
		})
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		fmt.Fprintf(out, "# %s: %d queries over %.0f reports (epoch %d)\n", name, info.TotalRows, info.Count, info.Epoch)
	}
	return nil
}

// runFanIn is the -servers mode: one pass, then -watch's passes.
func runFanIn(c config, names []string) error {
	agg, err := mechflag.Build(c.mech, c.n, c.eps, c.strategy, c.oracle)
	if err != nil {
		return err
	}
	f, err := newFanIn(c, agg, names, os.Stdout, os.Stderr)
	if err != nil {
		return err
	}
	if err := f.pass(context.Background()); err != nil {
		return err
	}
	if c.watch > 0 {
		f.watch(context.Background(), c.watch)
	}
	return nil
}

// fanIn is the client-side fan-in: the shards' fleet, the workloads it
// answers and where it prints them. One-shot, -watch, -as-of and -window
// all run its pass.
type fanIn struct {
	c         config
	fleet     *ldp.Fleet
	agg       ldp.Aggregator
	names     []string
	ws        []ldp.Workload
	pool      *ldp.EstimatorPool
	out, errw io.Writer

	// lastEpochs is endpoint→epoch of each shard's last fresh contribution,
	// what the -watch round compares /healthz against.
	lastEpochs map[string]uint64
}

// newFanIn resolves the workloads and registers every shard of c.servers,
// within c.timeout. A mismatched mechanism is fatal here, before a byte of
// state moves; a shard that is merely down is admitted as a coverage gap and
// joins the merge when it comes back. opts follow the flags' fleet options.
func newFanIn(c config, agg ldp.Aggregator, names []string, out, errw io.Writer, opts ...ldp.FleetOption) (*fanIn, error) {
	f := &fanIn{c: c, agg: agg, names: names, ws: make([]ldp.Workload, len(names)),
		pool: ldp.NewEstimatorPool(), out: out, errw: errw, lastEpochs: make(map[string]uint64)}
	var err error
	for i, name := range names {
		if f.ws[i], err = ldp.WorkloadByName(name, agg.Domain()); err != nil {
			return nil, err
		}
	}
	// The fleet only needs some workload over the domain to validate the
	// mechanism against; the pool answers all of them.
	opts = append([]ldp.FleetOption{ldp.WithFleetQuorum(c.quorum), ldp.WithFleetStaleFallback(!c.noStale)}, opts...)
	if f.fleet, err = ldp.NewFleet(agg, f.ws[0], opts...); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	for _, ep := range strings.Split(c.servers, ",") {
		if ep = strings.TrimSpace(ep); ep == "" {
			continue
		}
		if err := f.fleet.Register(ctx, ep); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// pass is one read of the fleet within c.timeout: one merged snapshot (live,
// or as of -as-of), what it covers, and every workload's rows over it — or,
// with -window, over its Diff against the fleet's retained history.
func (f *fanIn) pass(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, f.c.timeout)
	defer cancel()
	var (
		snap ldp.Snapshot
		cov  ldp.Coverage
		err  error
	)
	if f.c.asOf > 0 {
		// Historical read: each shard serves its newest retained epoch at or
		// below the bound, so the merge is the fleet's state as of that epoch.
		snap, cov, err = f.fleet.SnapAt(ctx, f.c.asOf)
	} else {
		snap, cov, err = f.fleet.Snap(ctx)
	}
	if err != nil {
		return err
	}
	f.report(cov, snap)
	if f.c.window > 0 {
		if snap.Epoch() <= f.c.window {
			return fmt.Errorf("window of %d epochs not yet filled (merged epoch %d)", f.c.window, snap.Epoch())
		}
		at := snap.Epoch() - f.c.window
		base, bcov, err := f.fleet.SnapAt(ctx, at)
		if err != nil {
			return fmt.Errorf("window: no usable history at epoch %d: %w", at, err)
		}
		fmt.Fprintf(f.out, "# window (%d, %d]: baseline coverage %s, %.0f reports\n", base.Epoch(), snap.Epoch(), bcov, base.Count())
		if snap, err = snap.Diff(base); err != nil {
			return err
		}
	}
	for i, w := range f.ws {
		est, err := f.pool.Estimator(f.agg, w)
		if err != nil {
			return err
		}
		if err := printRows(f.out, est, snap, f.c.level, f.c.variance, f.c.head); err != nil {
			return fmt.Errorf("workload %s: %w", f.names[i], err)
		}
		fmt.Fprintf(f.out, "# %s: %d queries over %.0f reports (epoch %d)\n", f.names[i], w.Queries(), snap.Count(), snap.Epoch())
	}
	return nil
}

// report prints what a merge covers — the summary and one line per shard —
// warns on stderr about each degraded shard, a partial merge and count drift,
// and records the fresh shards' epochs for the -watch round.
func (f *fanIn) report(cov ldp.Coverage, snap ldp.Snapshot) {
	fmt.Fprintf(f.out, "# coverage: %s, %.0f reports (epoch %d)\n", cov, snap.Count(), snap.Epoch())
	for _, sc := range cov.Shards {
		fmt.Fprintf(f.out, "# shard %s: %s, %.0f reports (epoch %d)\n", sc.Endpoint, sc.Status, sc.Count, sc.Epoch)
		if sc.Err != "" {
			fmt.Fprintf(f.errw, "ldpquery: shard %s %s: %s\n", sc.Endpoint, sc.Status, sc.Err)
		}
		// A stale contribution leaves its epoch behind, so the next tick
		// re-pulls when the shard returns.
		if sc.Status == ldp.CoverageFresh {
			f.lastEpochs[sc.Endpoint] = sc.Epoch
		}
	}
	if !cov.Complete() {
		fmt.Fprintf(f.errw, "ldpquery: WARNING: partial merge, coverage %s — the estimate undercounts the missing/stale shards' recent reports\n", cov)
	}
	// Counts need not be equal (shards can serve uneven populations), but an
	// order-of-magnitude split is what a shard silently restored from a stale
	// checkpoint looks like next to its peers.
	if ratio, minS, maxS := cov.DriftRatio(); f.c.drift > 0 && ratio > f.c.drift {
		fmt.Fprintf(f.errw,
			"ldpquery: WARNING: shard counts diverge beyond the %gx drift threshold: %s holds %.0f reports, %s only %.0f — %s may have recovered from a stale checkpoint or lost its state\n",
			f.c.drift, maxS.Endpoint, maxS.Count, minS.Endpoint, minS.Count, minS.Endpoint)
	}
}

// watch runs one cheap /healthz round per tick and a pass only when some
// shard's epoch advanced. A failed pass — a flapping shard, a below-quorum
// merge, an epoch regression — is logged and retried next tick. It returns
// when ctx is done.
func (f *fanIn) watch(ctx context.Context, interval time.Duration) {
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
			if err := f.pass(ctx); err != nil {
				fmt.Fprintf(f.errw, "ldpquery: %v (retrying in %s)\n", err, interval)
			}
		}
	}
}

// epochsAdvanced reports whether any reachable shard's /healthz epoch
// differs from the one it last contributed fresh — including a shard
// reappearing after an outage. Unreachable shards are skipped.
func (f *fanIn) epochsAdvanced(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, f.c.timeout)
	defer cancel()
	for ep, epoch := range f.fleet.Epochs(ctx) {
		if epoch != f.lastEpochs[ep] {
			return true
		}
	}
	return false
}

// printRows prints est's rows over snap from the streams POST /query
// answers with: AnswerStream when CIs are asked for (it refuses a level
// outside (0,1)), Answers beside VarianceStream for variances, Answers
// alone otherwise.
func printRows(out io.Writer, est *ldp.Estimator, snap ldp.Snapshot, level float64, variance bool, head int) error {
	withCI := level != 0
	withVar := variance || withCI
	emit := func(row transport.QueryRow) bool {
		if head > 0 && row.Index >= head {
			return false
		}
		printRow(out, row, withVar, withCI)
		return true
	}
	if withCI {
		return est.AnswerStream(snap, level, func(a ldp.QueryAnswer) bool {
			return emit(transport.QueryRow{Index: a.Index, Answer: a.Answer, Variance: a.Variance, Low: a.CI.Low, High: a.CI.High})
		})
	}
	answers, err := est.Answers(snap)
	if err != nil {
		return err
	}
	if withVar {
		return est.VarianceStream(snap, func(i int, v float64) bool {
			return emit(transport.QueryRow{Index: i, Answer: answers[i], Variance: v})
		})
	}
	for i, a := range answers {
		if !emit(transport.QueryRow{Index: i, Answer: a}) {
			break
		}
	}
	return nil
}

func printRow(out io.Writer, row transport.QueryRow, withVar, withCI bool) {
	switch {
	case withCI:
		fmt.Fprintf(out, "%d\t%.6g\t%.6g\t[%.6g, %.6g]\n", row.Index, row.Answer, row.Variance, row.Low, row.High)
	case withVar:
		fmt.Fprintf(out, "%d\t%.6g\t%.6g\n", row.Index, row.Answer, row.Variance)
	default:
		fmt.Fprintf(out, "%d\t%.6g\n", row.Index, row.Answer)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldpquery: %v\n", err)
	os.Exit(1)
}
