// Command ldprouter runs the failure-aware fan-in tier in front of N
// collector shards: it speaks the same framed protocol a single shard does,
// so drivers and pollers point at the router unchanged, while behind it
// membership is dynamic and health-gated and estimates degrade gracefully
// instead of failing when shards do.
//
//	POST /reports    keyed batches routed to a live shard (key-sticky: a
//	                 retried key replays on the shard that first saw it)
//	GET  /snapshot   merged snapshot; Ldp-Fleet-Coverage headers say how
//	                 many shards contributed, and how (fresh vs stale)
//	GET  /healthz    liveness + mechanism identity + per-shard membership
//	GET  /readyz     readiness: enough shards routable to meet -quorum
//	GET  /shards     membership listing
//	POST /shards     register a shard at runtime  {"endpoint": "http://..."}
//	DELETE /shards   deregister                    ?endpoint=http://...
//
// Shards that fail their readiness probe -unhealthy-after times in a row are
// gated out of ingest routing; per-shard circuit breakers stop merges from
// dialing a dead backend every time; with -no-stale off (the default) an
// unreachable shard contributes its last fetched snapshot, marked stale in
// the coverage. -quorum N makes the router refuse to serve a snapshot
// covering fewer than N shards.
//
// Usage:
//
//	ldprouter -listen :8090 -mech oue -n 256 -eps 1.0 \
//	    -servers http://shard0:8089,http://shard1:8089,http://shard2:8089
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // debug sidecar: profiles on -debug-addr only, never the serving listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ldp "repro"
	"repro/internal/mechflag"
)

func main() {
	listen := flag.String("listen", ":8090", "address to serve on")
	servers := flag.String("servers", "", "comma-separated shard base URLs to register at startup")
	mech := flag.String("mech", "", "build the fleet's mechanism in place: oue, olh, rappor")
	n := flag.Int("n", 64, "domain size (with -mech)")
	eps := flag.Float64("eps", 1.0, "privacy budget ε (with -mech)")
	stratPath := flag.String("strategy", "", "use a strategy wire file (SaveStrategy)")
	oraclePath := flag.String("oracle", "", "use an oracle wire file (SaveOracle)")
	quorum := flag.Int("quorum", 0, "refuse snapshots covering fewer than this many shards (0 = serve any non-empty coverage)")
	noStale := flag.Bool("no-stale", false, "disable the stale-snapshot fallback: an unreachable shard becomes a coverage gap instead of a stale contribution")
	bindLog := flag.String("bindings-log", "", "append-only log persisting idempotency-key→shard bindings across router restarts")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "readiness probe interval")
	unhealthyAfter := flag.Int("unhealthy-after", 2, "consecutive failed probes before a shard is gated out of routing")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this side address (never the main listener); empty disables")
	slowReq := flag.Duration("slow-request", 0, "log a warning for requests slower than this (0 = library default)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("ldprouter " + ldp.VersionString())
		return
	}

	agg, err := mechflag.Build(*mech, *n, *eps, *stratPath, *oraclePath)
	if err != nil {
		fatal(err)
	}
	info := ldp.MechanismInfoOf(agg)
	fleetOpts := []ldp.FleetOption{
		ldp.WithFleetQuorum(*quorum),
		ldp.WithFleetStaleFallback(!*noStale),
		ldp.WithFleetUnhealthyAfter(*unhealthyAfter),
	}
	if *bindLog != "" {
		fleetOpts = append(fleetOpts, ldp.WithFleetBindingLog(*bindLog))
	}
	fleet, err := ldp.NewFleet(agg, ldp.Histogram(agg.Domain()), fleetOpts...)
	if err != nil {
		fatal(err)
	}
	defer fleet.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, ep := range strings.Split(*servers, ",") {
		if ep = strings.TrimSpace(ep); ep == "" {
			continue
		}
		// A shard that is down right now is admitted gated-out and joins when
		// a probe finds it up; only a mechanism mismatch refuses it.
		if err := fleet.Register(ctx, ep); err != nil {
			fatal(err)
		}
	}
	fs, err := ldp.NewFleetServer(fleet, ldp.WithSlowRequestThreshold(*slowReq))
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		// pprof registers on the default mux at import; serving it on a
		// separate listener keeps profiles off the public surface.
		go func() {
			dsrv := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "ldprouter: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("ldprouter: pprof debug listener on %s\n", *debugAddr)
	}
	// POST /query answers workloads over the fleet's merged snapshot with the
	// same mechanism the shards aggregate under.
	if err := fs.EnableQueries(agg); err != nil {
		fatal(err)
	}

	// The probe loop is what turns shard failures into membership changes.
	go func() {
		ticker := time.NewTicker(*probeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				pctx, cancel := context.WithTimeout(ctx, *probeEvery)
				fs.Probe(pctx)
				cancel()
			}
		}
	}()

	srv := &http.Server{
		Addr:              *listen,
		Handler:           fs.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("ldprouter: %s (n=%d, ε=%g) fronting %d shard(s) on %s (quorum=%d, stale-fallback=%v)\n",
		info.Mechanism, info.Domain, info.Epsilon, len(fleet.Members()), *listen, *quorum, !*noStale)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Drain: refuse new ingest (503 + Retry-After, so clients keep their
	// keyed batches and retry elsewhere/later), let in-flight requests
	// finish, leave snapshot reads up until the listener closes.
	fs.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	fmt.Println("ldprouter: drained")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldprouter: %v\n", err)
	os.Exit(1)
}
