// Command ldpserve runs a networked LDP collector: it builds an Aggregator
// from a persisted mechanism (a SaveStrategy/SaveOracle wire file) or an
// on-the-spot configuration, fronts a sharded in-process Collector with the
// transport's HTTP binding, and serves
//
//	POST /reports  — framed Report batches, each frame applied atomically
//	GET  /snapshot — one framed snapshot (merged accumulator + count)
//	GET  /healthz  — JSON liveness, count, mechanism identity
//
// Any client speaking the frame format can ingest; `ldprun -remote` drives
// the complete pipeline against it. The server never sees a raw user type —
// only ε-LDP reports — so it runs untrusted.
//
// Usage:
//
//	ldpserve -listen :8089 -mech oue -n 256 -eps 1.0
//	ldpserve -listen :8089 -oracle olh256.oracle
//	ldpserve -listen :8089 -strategy prefix64.strategy
//
// With -data-dir the shard is durable: every acknowledged batch is appended
// to a write-ahead log before the ingest response is sent, the accumulator is
// checkpointed every -checkpoint-every reports, and startup recovers the
// directory's prior state (count, snapshot epoch, and the idempotency keys of
// logged batches — so client retries spanning the restart absorb exactly
// once). -fsync extends the guarantee from process crashes to power failures.
//
//	ldpserve -listen :8089 -mech oue -n 256 -eps 1.0 -data-dir /var/lib/ldp/shard0
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // debug sidecar: profiles on -debug-addr only, never the serving listener
	"os"
	"os/signal"
	"syscall"
	"time"

	ldp "repro"
	"repro/internal/mechflag"
)

func main() {
	listen := flag.String("listen", ":8089", "address to serve on")
	mech := flag.String("mech", "", "build a mechanism in place: oue, olh, rappor")
	n := flag.Int("n", 64, "domain size (with -mech)")
	eps := flag.Float64("eps", 1.0, "privacy budget ε (with -mech)")
	stratPath := flag.String("strategy", "", "serve a strategy wire file (SaveStrategy)")
	oraclePath := flag.String("oracle", "", "serve an oracle wire file (SaveOracle)")
	wname := flag.String("workload", "Histogram", "workload family for server-side consistency tooling")
	shards := flag.Int("shards", 0, "collector shards (0 = 2×GOMAXPROCS; at most 4096)")
	dataDir := flag.String("data-dir", "", "durable ingest directory (write-ahead log + checkpoints); empty serves in-memory only")
	ckptEvery := flag.Int("checkpoint-every", ldp.DefaultCheckpointEvery, "reports between automatic checkpoints (with -data-dir; 0 disables)")
	fsync := flag.Bool("fsync", false, "fsync every WAL group commit before acknowledging (with -data-dir): survives power loss, not just process crashes")
	historyKeep := flag.Int("history-keep", 0, "full-resolution window of the checkpoint retention ladder (with -data-dir); older checkpoints coarsen geometrically and GET /snapshot?epoch= serves any retained one; <2 uses the default")
	gzipHistory := flag.Bool("gzip-history", false, "gzip checkpoint payloads and closed retained WAL segments (with -data-dir)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this side address (never the main listener); empty disables")
	slowReq := flag.Duration("slow-request", 0, "log a warning for requests slower than this (0 = library default)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldpserve " + ldp.VersionString())
		return
	}

	agg, err := mechflag.Build(*mech, *n, *eps, *stratPath, *oraclePath)
	if err != nil {
		fatal(err)
	}
	// The identity /healthz and every snapshot frame declare: mechanism name,
	// domain, ε, and (for strategy matrices, where those three cannot tell
	// two matrices apart) the digest of the exact channel — what lets clients
	// and ldpfed reject a mismatched or stale shard at the handshake.
	info := ldp.MechanismInfoOf(agg)
	w, err := ldp.WorkloadByName(*wname, agg.Domain())
	if err != nil {
		fatal(err)
	}
	var copts []ldp.CollectorOption
	if *dataDir != "" {
		copts = append(copts, ldp.WithDurability(*dataDir,
			ldp.CheckpointEvery(*ckptEvery), ldp.FsyncEachCommit(*fsync),
			ldp.HistoryKeep(*historyKeep), ldp.GzipHistory(*gzipHistory)))
	}
	col, err := ldp.NewCollector(agg, w, *shards, copts...)
	if err != nil {
		fatal(err)
	}
	if st, ok := col.Durability(); ok {
		fmt.Printf("ldpserve: durable ingest in %s (fsync=%v): recovered %d reports (%d WAL records replayed, %d torn tail bytes dropped, checkpoint seq %d)\n",
			*dataDir, st.Fsync, st.RecoveredReports, st.ReplayedRecords, st.DroppedTailBytes, st.CheckpointSeq)
	}
	svc, err := ldp.NewCollectorService(col, info, ldp.WithSlowRequestThreshold(*slowReq))
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		// pprof registers on the default mux at import; serving it on a
		// separate listener keeps profiles off the public surface.
		go func() {
			dsrv := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "ldpserve: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("ldpserve: pprof debug listener on %s\n", *debugAddr)
	}

	// Full server-side timeouts: a stalled or hostile peer cannot hold a
	// connection open forever, and request bodies are already bounded by the
	// transport's MaxBytesReader. The read/write budgets are generous — a
	// snapshot of a wide mechanism is a large frame on a slow link.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("ldpserve: %s (n=%d, ε=%g) with %d shards on %s\n",
		info.Mechanism, info.Domain, info.Epsilon, col.Shards(), *listen)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: new ingest is refused with a retryable 503 (clients
	// keep their keyed batches and land them on another shard or a restart)
	// while /readyz flips not-ready for the router tier; in-flight ingests
	// finish; the final count is logged so an operator can reconcile
	// against their drivers.
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		// A final checkpoint makes the next start replay-free; even if it
		// fails, the WAL already holds every acknowledged report.
		if err := col.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "ldpserve: final checkpoint failed (WAL remains authoritative): %v\n", err)
		}
		if err := col.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ldpserve: close durable store: %v\n", err)
		}
	}
	fmt.Printf("ldpserve: drained with %d reports collected\n", int(col.Count()))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldpserve: %v\n", err)
	os.Exit(1)
}
