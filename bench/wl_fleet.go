package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	ldp "repro"
)

// fleetIngest is the deployment shape of the fleet tier: two closed-loop
// connections POST keyed OUE batches through a FleetServer to two
// durable-buffered shards. Frame encode/decode (twice: the router re-frames),
// Absorb and the WAL append dominate; the estimator and optimizer are idle.
type fleetIngest struct {
	cfg                      config
	n, perBatch, poolBatches int
	snapEvery                int // connection 0 reads a merged snapshot every this many POSTs
	probeEvery               time.Duration

	oracle ldp.FrequencyOracle
	work   ldp.Workload
	pool   *batchPool
	shards [2]*shard
	fleet  *ldp.Fleet
	fs     *ldp.FleetServer
	router *served
	fault  faultInjector
	stop   context.CancelFunc
	probed sync.WaitGroup
	conns  [2]*conn

	pass  int            // run() calls so far; part of every idempotency key
	acked []atomic.Int64 // acked[b] = acknowledged POSTs of pool batch b since set-up
}

// shard is one durable collector behind its service and listener.
type shard struct {
	dir string
	col *ldp.Collector
	svc *ldp.CollectorService
	*served
}

func newFleetIngest(cfg config) *fleetIngest {
	f := &fleetIngest{cfg: cfg, n: 256, perBatch: 256, poolBatches: 64, snapEvery: 128, probeEvery: 150 * time.Millisecond}
	if cfg.smoke {
		f.n, f.perBatch, f.poolBatches, f.snapEvery = 32, 32, 8, 16
		// Smoke runs share the machine with the rest of the test suite; a
		// starved 150 ms probe must not gate a shard out mid-test.
		f.probeEvery = 2 * time.Second
	}
	return f
}

func (f *fleetIngest) why() string {
	return "keyed OUE batches through router to 2 durable shards: transport/fleet/freqoracle/WAL dominate, estimator idle"
}

func (f *fleetIngest) describe() (map[string]string, string) {
	return map[string]string{
		"setup_s":     "oracle, report pool, 2 durable shards + router listening, members registered, 2 connections dialed",
		"op_p50_ms":   "ingest_ack_p50_ms: POST of one 256-report batch through the router → ack",
		"op_tail_ms":  "ingest_ack_p99_ms: the same, p99",
		"side_p50_ms": "merged GET /snapshot through the router while ingest continues",
		"work_per_s":  "ingest_reports_per_s: acknowledged reports per second over both connections",
	}, "p99"
}

func (f *fleetIngest) setup() error {
	var err error
	if f.oracle, err = ldp.NewOUE(f.n, 1); err != nil {
		return err
	}
	f.work = ldp.Histogram(f.n)
	if f.pool, err = newBatchPool(f.oracle, rand.New(rand.NewSource(f.cfg.seed)), f.poolBatches, f.perBatch); err != nil {
		return err
	}
	f.acked = make([]atomic.Int64, f.poolBatches)
	// The fleet is configured as cmd/ldprouter configures it.
	f.fleet, err = ldp.NewFleet(f.oracle, f.work, ldp.WithFleetQuorum(0), ldp.WithFleetStaleFallback(true), ldp.WithFleetUnhealthyAfter(2))
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := range f.shards {
		if f.shards[i], err = newDurableShard(f.cfg, f.oracle, f.work); err != nil {
			return err
		}
		if err := f.fleet.Register(ctx, f.shards[i].ln.url); err != nil {
			return err
		}
	}
	if f.fs, err = ldp.NewFleetServer(f.fleet); err != nil {
		return err
	}
	if err := f.fs.EnableQueries(f.oracle); err != nil {
		return err
	}
	f.fault.remaining.Store(int64(f.cfg.inject503))
	if f.router, err = serveTier(f.fs.Handler(), f.fault.wrap); err != nil {
		return err
	}
	pctx, stop := context.WithCancel(ctx)
	f.stop = stop
	f.probed.Add(1)
	go func() {
		defer f.probed.Done()
		ticker := time.NewTicker(f.probeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-pctx.Done():
				return
			case <-ticker.C:
				c, cancel := context.WithTimeout(pctx, f.probeEvery)
				f.fs.Probe(c)
				cancel()
			}
		}
	}()
	for i := range f.conns {
		if f.conns[i], err = dial(f.router.ln.url); err != nil {
			return err
		}
	}
	return nil
}

// newDurableShard opens a durable collector on a fresh directory with the
// defaults cmd/ldpserve uses (buffered WAL, checkpoint every 65,536 reports)
// and serves it.
func newDurableShard(cfg config, agg ldp.Aggregator, w ldp.Workload) (*shard, error) {
	dir, err := os.MkdirTemp(cfg.dataDir, "shard-")
	if err != nil {
		return nil, err
	}
	s := &shard{dir: dir}
	if s.col, err = ldp.NewCollector(agg, w, 0, ldp.WithDurability(dir)); err != nil {
		return s, err
	}
	if s.svc, err = ldp.NewCollectorService(s.col, ldp.MechanismInfoOf(agg)); err != nil {
		return s, err
	}
	s.served, err = serveTier(s.svc.Handler(), nil)
	return s, err
}

func (s *shard) close() {
	if s == nil {
		return
	}
	if s.served != nil {
		s.ln.close()
	}
	if s.col != nil {
		s.col.Close()
	}
	os.RemoveAll(s.dir)
}

func (f *fleetIngest) teardown() {
	for i, c := range f.conns {
		if c != nil {
			c.tr.CloseIdleConnections()
			f.conns[i] = nil
		}
	}
	if f.stop != nil {
		f.stop()
		f.probed.Wait()
		f.stop = nil
	}
	if f.router != nil {
		f.router.ln.close()
		f.router = nil
	}
	if f.fleet != nil {
		f.fleet.Close()
		f.fleet = nil
	}
	for i, s := range f.shards {
		s.close()
		f.shards[i] = nil
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (f *fleetIngest) warmup() (*window, error) { return f.run(f.cfg.warmup, nil) }

func (f *fleetIngest) ackedReports() int64 {
	var total int64
	for b := range f.acked {
		total += f.acked[b].Load() * int64(f.perBatch)
	}
	return total
}

func (f *fleetIngest) run(d time.Duration, tr *tracer) (*window, error) {
	if tr != nil {
		defer f.router.traceAs(tr, "router.handle")()
		for _, s := range f.shards {
			defer s.traceAs(tr, "shard.handle")()
		}
	}
	f.pass++
	wins := make([]*window, len(f.conns))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := range f.conns {
		wins[g] = &window{}
		wg.Add(1)
		go func(g int, win *window) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; time.Since(start) < d; i++ {
				b := (g + len(f.conns)*i) % f.poolBatches
				key := fmt.Sprintf("s%d-p%d-c%d-%d", f.cfg.seed, f.pass, g, i)
				inflight.Add(1)
				t0 := time.Now()
				id := tr.begin("client.post", -1, key)
				n, err := f.conns[g].PostReportsKeyed(withRequest(ctx, tr, key), f.pool.batches[b], key)
				tr.end(id)
				win.op.add(time.Since(t0).Seconds() * 1e3)
				win.attempted++
				if err != nil || n != f.perBatch {
					win.failed++
				} else {
					f.acked[b].Add(1)
					win.work += float64(n)
				}
				inflight.Add(-1)
				if g == 0 && i%f.snapEvery == f.snapEvery-1 {
					f.readSnapshot(ctx, tr, win, fmt.Sprintf("%s-snap", key), &inflight)
				}
			}
		}(g, wins[g])
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start)}
	for _, w := range wins {
		out.op.merge(&w.op)
		out.side.merge(&w.side)
		out.work += w.work
		out.attempted += w.attempted
		out.failed += w.failed
		out.problems = append(out.problems, w.problems...)
	}
	return out, nil
}

// readSnapshot is the secondary operation: one merged snapshot through the
// router. Its count must cover everything acknowledged before the read began
// and nothing that was not at least in flight when it ended.
func (f *fleetIngest) readSnapshot(ctx context.Context, tr *tracer, win *window, id string, inflight *atomic.Int64) {
	lo := f.ackedReports()
	t0 := time.Now()
	sp := tr.begin("client.snapshot", -1, id)
	snap, err := f.conns[0].Snap(withRequest(ctx, tr, id))
	tr.end(sp)
	win.side.add(time.Since(t0).Seconds() * 1e3)
	win.attempted++
	if err != nil {
		win.failed++
		return
	}
	hi := f.ackedReports() + (inflight.Load()+1)*int64(f.perBatch)
	if c := int64(snap.Count); c < lo || c > hi {
		win.problemf("merged snapshot count %d outside [%d acked before, %d acked or in flight after]", c, lo, hi)
	}
}

func (f *fleetIngest) verify() []check {
	var out []check
	add := func(name string, err error, detail string) {
		if err != nil {
			detail = err.Error()
		}
		out = append(out, check{Name: name, OK: err == nil, Detail: detail})
	}
	snap, cov, err := f.fleet.Snap(context.Background())
	if err != nil {
		add("router-merged snapshot", err, "")
		return out
	}
	acked := f.ackedReports()
	var shardSum float64
	for _, s := range f.shards {
		shardSum += s.col.Count()
	}
	err = nil
	if !cov.Complete() || snap.Count() != float64(acked) || shardSum != float64(acked) {
		err = fmt.Errorf("merged count %v, Σ shard counts %v, acked %d, coverage %s", snap.Count(), shardSum, acked, cov)
	}
	add("merged count == acked reports == Σ shard counts", err, fmt.Sprintf("%d reports, %s", acked, cov))

	// The accumulator is an element-wise sum of per-report contributions, all
	// integer-valued, so absorbing batch b k times equals k × (absorbing it
	// once) exactly: the reference needs one absorb per distinct batch.
	ref := make([]float64, snap.StateLen())
	counts := make([]int64, f.poolBatches)
	for b := range f.acked {
		counts[b] = f.acked[b].Load()
		if counts[b] == 0 {
			continue
		}
		one, rerr := ldp.NewCollector(f.oracle, f.work, 1)
		if rerr == nil {
			rerr = one.IngestBatch(f.pool.batches[b])
		}
		if rerr != nil {
			add("reference collector", rerr, "")
			return out
		}
		for i, v := range one.Snap().State() {
			ref[i] += float64(counts[b]) * v
		}
	}
	add("merged state bit-identical to a reference collector fed the acked batches", sameState(snap.State(), ref), "")

	est, err := ldp.NewEstimator(f.oracle, f.work)
	if err != nil {
		add("estimator", err, "")
		return out
	}
	answers, err := est.Answers(snap)
	if err == nil {
		var variance []float64
		if variance, err = est.Variance(snap); err == nil {
			err = insideEnvelope(answers, f.pool.truthOf(counts), variance, replayInflation(counts))
		}
	}
	add("estimate inside the 6σ closed-form envelope of the generator's truth", err, "")
	return out
}

// replayInflation corrects the closed-form variance for the generator
// replaying its pool: batch b acknowledged k_b times contributes its noise k_b
// times over, not k_b independent draws, so the variance of the sum is
// Σk_b²·σ² where N independent reports would give Σk_b·σ².
func replayInflation(counts []int64) float64 {
	var k, k2 float64
	for _, c := range counts {
		k += float64(c)
		k2 += float64(c) * float64(c)
	}
	if k == 0 {
		return 1
	}
	return k2 / k
}

// insideEnvelope checks |estimate − truth| ≤ 6σ per cell, σ² the closed-form
// variance times inflate, and 1.5× more for the frequency term occupied cells
// carry (the margin the repository's acceptance tests use).
func insideEnvelope(est, truth, variance []float64, inflate float64) error {
	for i := range truth {
		if bound := 6 * math.Sqrt(1.5*inflate*variance[i]); math.Abs(est[i]-truth[i]) > bound {
			return fmt.Errorf("cell %d: estimate %.1f vs truth %.0f, outside ±%.1f", i, est[i], truth[i], bound)
		}
	}
	return nil
}

func (f *fleetIngest) layers(base, traced *window, stats []spanStat) (map[string]value, []share, string, error) {
	m := map[string]value{}
	batch := f.pool.batches[0]
	per := float64(f.perBatch)

	encMs, decMs := probeFrames(m, batch)

	acc := make([]float64, f.oracle.StateLen())
	absorbMs := probe(func() {
		for _, r := range batch {
			_ = f.oracle.Absorb(acc, r)
		}
	})
	checkMs := probe(func() {
		for _, r := range batch {
			_ = f.oracle.Check(r)
		}
	})
	m["freqoracle.absorb_ns_per_report"] = value{Value: absorbMs * 1e6 / per, Stat: "p50", Means: "OUE Absorb"}
	m["freqoracle.check_ns_per_report"] = value{Value: checkMs * 1e6 / per, Stat: "p50", Means: "OUE Check"}

	ing, err := probeIngest(f.cfg, f.oracle, f.work, f.pool.batches)
	if err != nil {
		return nil, nil, "", err
	}
	ing.fill(m, per)

	// Counts from the serving shards' own expositions, over everything since
	// set-up.
	var commits, appends, ckpts float64
	for _, s := range f.shards {
		sc, err := scrape(s.svc.Metrics())
		if err != nil {
			return nil, nil, "", err
		}
		commits += sampleValue(sc, "ldp_wal_commit_bytes_count", "")
		appends += sampleValue(sc, "ldp_collector_ingest_batches_total", "")
		ckpts += sampleValue(sc, "ldp_checkpoint_seq", "")
	}
	if appends > 0 {
		m["durable.group_commits_per_append"] = value{Value: commits / appends, Stat: "count", Means: "WAL group commits ÷ appended batches, both shards, from /metrics"}
	}
	m["durable.checkpoints"] = value{Value: ckpts, Stat: "count", Means: "checkpoint sequence, both shards summed"}

	// The same batches over one quiet connection: straight to a shard, then
	// through the router. The difference is what the router tier adds.
	direct, err := f.postLoop(f.shards[0].ln.url, "direct")
	if err != nil {
		return nil, nil, "", err
	}
	routed, err := f.postLoop(f.router.ln.url, "routed")
	if err != nil {
		return nil, nil, "", err
	}
	httpMs := direct - decMs - ing.durableMs
	m["transport.shard_post_us"] = value{Value: direct * 1e3, Stat: "p50", Means: "the same batches POSTed straight to one shard, one quiet connection"}
	m["transport.http_overhead_us"] = value{Value: httpMs * 1e3, Stat: "derived", Means: "shard_post − decode − durable ingest (client encode + HTTP + JSON ack)"}
	m["fleet.forward_overhead_us"] = value{Value: (routed - direct) * 1e3, Stat: "p50 − p50", Means: "router POST p50 − direct-shard POST p50, one quiet connection"}
	m["fleet.snap_ms"] = value{Value: probe(func() { _, _, _ = f.fleet.Snap(context.Background()) }), Stat: "p50", Means: "Fleet.Snap over both shards, quiescent"}
	rs, err := scrape(f.fs.Metrics())
	if err != nil {
		return nil, nil, "", err
	}
	m["fleet.forward_retries"] = value{Value: sampleValue(rs, "ldp_fleet_forward_retries_total", ""), Stat: "count"}
	m["fleet.breaker_opens"] = value{Value: sampleValue(rs, "ldp_fleet_breaker_transitions_total", `to="open"`), Stat: "count"}

	// One routed POST as the router sees it: decode, forward (re-encode, a
	// second HTTP hop, the shard's decode and durable ingest).
	posts := float64(traced.op.n())
	span := totalMs(stats, "router.handle/reports") / posts
	shares := []share{
		{Layer: "transport.decode (router + shard)", Ms: 2 * decMs},
		{Layer: "transport.encode (router re-frame)", Ms: encMs},
		{Layer: "collector.ingest (check + absorb)", Ms: ing.memoryMs},
		{Layer: "durable.append", Ms: ing.durableMs - ing.memoryMs},
		{Layer: "transport.http (router → shard hop)", Ms: httpMs - encMs},
	}
	return m, finishShares(shares, span), "router.handle/reports", nil
}

// postLoop POSTs pool batches over one fresh connection for a probe budget
// and returns the median latency in ms. Keys are unique, so every POST is
// absorbed; layers run before verify, so these stay part of the checked state.
func (f *fleetIngest) postLoop(base, tag string) (float64, error) {
	c, err := dial(base)
	if err != nil {
		return 0, err
	}
	defer c.tr.CloseIdleConnections()
	i := 0
	var perr error
	ms := probe(func() {
		b := i % f.poolBatches
		n, err := c.PostReportsKeyed(context.Background(), f.pool.batches[b], fmt.Sprintf("s%d-%s-%d", f.cfg.seed, tag, i))
		if err != nil || n != f.perBatch {
			perr = fmt.Errorf("probe POST to %s: accepted %d: %v", base, n, err)
		} else {
			f.acked[b].Add(1)
		}
		i++
	})
	return ms, perr
}
