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
//     health-gated fleet, pulls one merged snapshot, and answers every
//     requested workload through an EstimatorPool's estimator with the
//     streams a server's POST /query uses, so the rows are the ones -server
//     prints, bit for bit, and a level outside (0,1) is refused the same way.
//
// Workloads come from -workloads (comma-separated family names) and/or -file
// (one name per line, '#' comments):
//
//	ldpquery -server http://router:8090 -workloads Prefix -level 0.95
//	ldpquery -servers shardA:8089,shardB:8089 -mech oue -n 256 \
//	    -file workloads.txt -variance
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ldp "repro"
	"repro/internal/mechflag"
	"repro/internal/transport"
)

func main() {
	server := flag.String("server", "", "query one endpoint (shard or router) over POST /query")
	servers := flag.String("servers", "", "comma-separated shard URLs for client-side fan-in (requires a mechanism)")
	mech := flag.String("mech", "", "mechanism for fan-in mode: oue, olh, rappor")
	n := flag.Int("n", 64, "domain size (fan-in mode with -mech)")
	eps := flag.Float64("eps", 1.0, "privacy budget ε (fan-in mode with -mech)")
	stratPath := flag.String("strategy", "", "use a strategy wire file (fan-in mode)")
	oraclePath := flag.String("oracle", "", "use an oracle wire file (fan-in mode)")
	workloads := flag.String("workloads", "", "comma-separated workload family names")
	file := flag.String("file", "", "workload file: one family name per line, '#' comments")
	level := flag.Float64("level", 0, "two-sided confidence level in (0,1); adds CI columns")
	variance := flag.Bool("variance", false, "add the per-query variance column")
	checkDigest := flag.Bool("check-digest", true, "send the canonical workload digest so the server proves it resolved the same workload (server mode)")
	head := flag.Int("head", 0, "print only the first N rows per workload (0 = all)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	asOf := flag.Uint64("as-of", 0, "answer over the shards' retained history at this epoch instead of live state (fan-in mode); each shard serves its newest retained epoch at or below the bound")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpquery " + ldp.VersionString())
		return
	}

	names, err := workloadNames(*workloads, *file)
	if err != nil {
		fatal(err)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no workloads requested: set -workloads and/or -file"))
	}
	if (*server == "") == (*servers == "") {
		fatal(fmt.Errorf("set exactly one of -server (remote query) or -servers (client-side fan-in)"))
	}
	if *asOf != 0 && *server != "" {
		fatal(fmt.Errorf("-as-of needs the fan-in mode (-servers): POST /query always answers over live state"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *server != "" {
		err = queryServer(ctx, os.Stdout, *server, names, *level, *variance, *checkDigest, *head)
	} else {
		err = queryFanIn(ctx, os.Stdout, *servers, names, queryMech{*mech, *n, *eps, *stratPath, *oraclePath}, *level, *variance, *head, *asOf)
	}
	if err != nil {
		fatal(err)
	}
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
	for _, name := range names {
		req := transport.QueryRequest{Workload: name, Level: level, WantVariance: variance || level > 0, WantCI: level > 0}
		if checkDigest {
			// Resolving the workload locally needs the domain; ask the server.
			h, err := c.Healthz(ctx)
			if err != nil {
				return err
			}
			w, err := ldp.WorkloadByName(name, h.Domain)
			if err != nil {
				return err
			}
			req.Domain = h.Domain
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

// queryMech carries the fan-in mode's mechanism flags.
type queryMech struct {
	mech       string
	n          int
	eps        float64
	strategy   string
	oraclePath string
}

// queryFanIn merges the shards' snapshots client-side and answers every
// workload through one EstimatorPool batch over the merged snapshot.
func queryFanIn(ctx context.Context, out io.Writer, servers string, names []string, qm queryMech, level float64, variance bool, head int, asOf uint64) error {
	agg, err := mechflag.Build(qm.mech, qm.n, qm.eps, qm.strategy, qm.oraclePath)
	if err != nil {
		return err
	}
	ws := make([]ldp.Workload, len(names))
	for i, name := range names {
		if ws[i], err = ldp.WorkloadByName(name, agg.Domain()); err != nil {
			return err
		}
	}
	// The fleet only needs some workload over the domain to validate the
	// mechanism against; the pool below answers all of them.
	fleet, err := ldp.NewFleet(agg, ws[0])
	if err != nil {
		return err
	}
	for _, ep := range strings.Split(servers, ",") {
		if ep = strings.TrimSpace(ep); ep == "" {
			continue
		}
		if err := fleet.Register(ctx, ep); err != nil {
			return err
		}
	}
	var (
		snap ldp.Snapshot
		cov  ldp.Coverage
	)
	if asOf > 0 {
		// Historical read: each shard serves its newest retained epoch at or
		// below the bound, so the merge is the fleet's state as of that epoch.
		snap, cov, err = fleet.SnapAt(ctx, asOf)
	} else {
		snap, cov, err = fleet.Snap(ctx)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# coverage: %s\n", cov)
	pool := ldp.NewEstimatorPool()
	for i, w := range ws {
		est, err := pool.Estimator(agg, w)
		if err != nil {
			return err
		}
		if err := printRows(out, est, snap, level, variance, head); err != nil {
			return fmt.Errorf("workload %s: %w", names[i], err)
		}
		fmt.Fprintf(out, "# %s: %d queries over %.0f reports (epoch %d)\n", names[i], w.Queries(), snap.Count(), snap.Epoch())
	}
	return nil
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
