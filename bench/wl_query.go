package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	ldp "repro"
	"repro/internal/transport"
)

// queryMixed is writes beside reads on one memory-only shard serving an
// optimized strategy: an open-loop writer POSTs small batches on a schedule
// over one connection while a closed-loop reader on the other repeats a
// dashboard refresh of three POST /query calls. Every refresh sees a new
// epoch, so snapshot and estimator work is redone each time: estimator, pool,
// strategy and workload dominate, durable is bypassed, and a read-side change
// that holds collector locks longer shows in the writer's ack latency.
type queryMixed struct {
	cfg               config
	n, m, perBatch    int
	poolBatches       int
	interval          time.Duration // the writer's schedule: one POST per interval
	optIters          []ldp.OptimizeOption
	refresh           []transport.QueryRequest
	cacheDir          string
	strat             *ldp.Strategy
	agg               ldp.Aggregator
	col               *ldp.Collector
	svc               *ldp.CollectorService
	tier              *served
	fault             faultInjector
	writer, reader    *conn
	reports           *batchPool
	pass              int
	acked             atomic.Int64 // reports acknowledged since set-up
	late, firstRowMs  samples      // last run's generator lateness and time to first AllRange row
	behind            float64      // last run's share of scheduled POSTs never sent
	worstBehind       float64      // the largest behind of any measured window
	maxBehind         float64      // above this the generator was saturated and the run is invalid
	scheduled, posted int
}

func newQueryMixed(cfg config) *queryMixed {
	q := &queryMixed{cfg: cfg, n: 96, m: 384, perBatch: 64, poolBatches: 512, interval: time.Millisecond,
		optIters: []ldp.OptimizeOption{ldp.WithIterations(30)}, maxBehind: 0.05}
	if cfg.smoke {
		q.n, q.m, q.perBatch, q.poolBatches, q.interval = 16, 64, 16, 32, 5*time.Millisecond
		// A smoke window is a fraction of a second on a machine busy with the
		// rest of the test suite: one scheduler stall at its end is 5 %.
		q.maxBehind = 0.5
	}
	q.refresh = []transport.QueryRequest{
		{Workload: "AllRange", Domain: q.n, Level: 0.95, WantCI: true},
		{Workload: "Prefix", Domain: q.n, WantVariance: true},
		{Workload: "Histogram", Domain: q.n},
	}
	return q
}

func (q *queryMixed) why() string {
	return "open-loop writes beside closed-loop /query refreshes on a memory-only strategy shard: estimator/pool/workload dominate, durable bypassed"
}

func (q *queryMixed) describe() (map[string]string, string) {
	return map[string]string{
		"setup_s":     "EstimatorPool.Strategy cold (Prefix n=96, m=384, 30 iterations), aggregator, collector served, report pool, 2 connections",
		"op_p50_ms":   "query_refresh_p50_ms: first byte sent → last row of AllRange+CI, Prefix+variance, Histogram",
		"op_tail_ms":  "query_refresh_p90_ms: the same, p90",
		"side_p50_ms": "ingest_ack_p50_ms: the open-loop writer's POST → ack, timed from the moment it was due",
		"work_per_s":  "result rows streamed to the reader per second",
	}, "p90"
}

func (q *queryMixed) strategyOptions() []ldp.OptimizeOption {
	return append([]ldp.OptimizeOption{ldp.WithOutputs(q.m), ldp.WithSeed(q.cfg.seed)}, q.optIters...)
}

func (q *queryMixed) setup() error {
	var err error
	if q.cacheDir, err = os.MkdirTemp(q.cfg.dataDir, "cache-"); err != nil {
		return err
	}
	pool := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(q.cacheDir))
	if q.strat, err = pool.Strategy(context.Background(), ldp.Prefix(q.n), 1, q.strategyOptions()...); err != nil {
		return err
	}
	if q.agg, err = ldp.NewAggregator(q.strat); err != nil {
		return err
	}
	// Served as cmd/ldpserve serves a strategy file without -data-dir.
	if q.col, err = ldp.NewCollector(q.agg, ldp.Histogram(q.n), 0); err != nil {
		return err
	}
	if q.svc, err = ldp.NewCollectorService(q.col, ldp.MechanismInfoOf(q.agg)); err != nil {
		return err
	}
	q.fault.remaining.Store(int64(q.cfg.inject503))
	if q.tier, err = serveTier(q.svc.Handler(), q.fault.wrap); err != nil {
		return err
	}
	r, err := ldp.NewRandomizer(q.strat)
	if err != nil {
		return err
	}
	if q.reports, err = newBatchPool(r, rand.New(rand.NewSource(q.cfg.seed)), q.poolBatches, q.perBatch); err != nil {
		return err
	}
	if q.writer, err = dial(q.tier.ln.url); err != nil {
		return err
	}
	q.reader, err = dial(q.tier.ln.url)
	q.acked.Store(0)
	return err
}

func (q *queryMixed) teardown() {
	for _, c := range []*conn{q.writer, q.reader} {
		if c != nil {
			c.tr.CloseIdleConnections()
		}
	}
	q.writer, q.reader = nil, nil
	if q.tier != nil {
		q.tier.ln.close()
		q.tier = nil
	}
	os.RemoveAll(q.cacheDir)
}

// warmup's one-second window is too short to judge the generator by: one
// 50 ms stall at its end leaves 5 % unsent. Only measured windows count.
func (q *queryMixed) warmup() (*window, error) {
	win, err := q.run(q.cfg.warmup, nil)
	q.worstBehind = 0
	return win, err
}

func (q *queryMixed) run(d time.Duration, tr *tracer) (*window, error) {
	if tr != nil {
		defer q.tier.traceAs(tr, "shard.handle")()
	}
	q.pass++
	q.late, q.firstRowMs = samples{}, samples{}
	wwin, rwin := &window{}, &window{}
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		q.write(start, end, wwin, tr)
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; time.Now().Before(end); i++ {
			q.refreshOnce(ctx, tr, rwin, fmt.Sprintf("s%d-p%d-refresh-%d", q.cfg.seed, q.pass, i))
		}
	}()
	wg.Wait()
	out := &window{elapsed: time.Since(start), op: rwin.op, side: wwin.side, work: rwin.work,
		attempted: rwin.attempted + wwin.attempted, failed: rwin.failed + wwin.failed,
		problems: append(rwin.problems, wwin.problems...)}
	q.behind = 1 - float64(q.posted)/float64(q.scheduled)
	q.worstBehind = max(q.worstBehind, q.behind)
	return out, nil
}

// write is the open-loop generator: POST i is due at start + i·interval
// whatever happened to POST i−1. One connection carries one request at a
// time, so a slow ack delays the next send; timing each ack from its due time
// charges that wait to the requests that suffered it.
func (q *queryMixed) write(start, end time.Time, win *window, tr *tracer) {
	ctx := context.Background()
	q.scheduled = int(end.Sub(start) / q.interval)
	q.posted = 0
	for i := 0; i < q.scheduled; i++ {
		due := start.Add(time.Duration(i) * q.interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		q.late.add(sent.Sub(due).Seconds() * 1e3)
		key := fmt.Sprintf("s%d-p%d-w-%d", q.cfg.seed, q.pass, i)
		sp := tr.begin("client.post", -1, key)
		n, err := q.writer.PostReportsKeyed(withRequest(ctx, tr, key), q.reports.batches[i%q.poolBatches], key)
		tr.end(sp)
		win.side.add(time.Since(due).Seconds() * 1e3)
		win.attempted++
		q.posted++
		if err != nil || n != q.perBatch {
			win.failed++
			continue
		}
		q.acked.Add(int64(n))
	}
}

// refreshOnce is one dashboard refresh: three queries back to back, every row
// consumed. Each result must have the workload's row count and reflect a
// report count between what was acknowledged before the query and what was
// acknowledged or in flight after it.
func (q *queryMixed) refreshOnce(ctx context.Context, tr *tracer, win *window, id string) {
	t0 := time.Now()
	root := tr.begin("client.refresh", -1, "")
	ok := true
	for k, req := range q.refresh {
		lo := q.acked.Load()
		rid := fmt.Sprintf("%s-%d", id, k)
		sp := tr.begin("client.query", root, rid)
		rows := 0
		info, err := q.reader.PostQuery(withRequest(ctx, tr, rid), req, func(transport.QueryRow) bool {
			if rows == 0 && k == 0 {
				q.firstRowMs.add(time.Since(t0).Seconds() * 1e3)
			}
			rows++
			return true
		})
		tr.end(sp)
		win.attempted++
		if err != nil {
			win.failed++
			ok = false
			continue
		}
		win.work += float64(rows)
		hi := q.acked.Load() + int64(q.perBatch)
		if rows != info.TotalRows || rows != queriesOf(req.Workload, q.n) {
			win.problemf("%s: %d rows streamed, header says %d, workload has %d", req.Workload, rows, info.TotalRows, queriesOf(req.Workload, q.n))
		}
		if c := int64(info.Count); c < lo || c > hi {
			win.problemf("%s: result count %d outside [%d acked before, %d acked or in flight after]", req.Workload, c, lo, hi)
		}
	}
	tr.end(root)
	if ok {
		win.op.add(time.Since(t0).Seconds() * 1e3)
	}
}

func queriesOf(name string, n int) int {
	if name == "AllRange" {
		return n * (n + 1) / 2
	}
	return n
}

func (q *queryMixed) verify() []check {
	// A generator that cannot keep its schedule is measuring itself, not the
	// server.
	out := []check{{Name: "open-loop writer kept its schedule (generator not saturated)", OK: q.worstBehind <= q.maxBehind,
		Detail: fmt.Sprintf("%.2f %% of scheduled POSTs never sent in the worst measured window, limit %.0f %%", 100*q.worstBehind, 100*q.maxBehind)}}
	snap := q.col.Snap()
	ctx := context.Background()
	for _, req := range q.refresh {
		w, err := ldp.WorkloadByName(req.Workload, q.n)
		var want []float64
		if err == nil {
			var est *ldp.Estimator
			if est, err = ldp.NewEstimator(q.agg, w); err == nil {
				want, err = est.Answers(snap)
			}
		}
		var got []float64
		if err == nil {
			_, err = q.reader.PostQuery(ctx, req, func(r transport.QueryRow) bool {
				got = append(got, r.Answer)
				return true
			})
		}
		if err == nil {
			err = sameState(got, want)
		}
		c := check{Name: "quiescent POST /query " + req.Workload + " == Estimator.Answers(col.Snap()) bit for bit", OK: err == nil,
			Detail: fmt.Sprintf("%d rows over %.0f reports", len(got), snap.Count())}
		if err != nil {
			c.Detail = err.Error()
		}
		out = append(out, c)
	}
	return out
}

func (q *queryMixed) layers(base, traced *window, stats []spanStat) (map[string]value, []share, string, error) {
	m := map[string]value{}
	ctx := context.Background()
	refreshes := float64(traced.op.n())

	// Set-up: where the strategy comes from, three ways.
	coldDir, err := os.MkdirTemp(q.cfg.dataDir, "cold-")
	if err != nil {
		return nil, nil, "", err
	}
	defer os.RemoveAll(coldDir)
	if err := probeStrategyPool(m, coldDir, ldp.Prefix(q.n), q.strat, q.strategyOptions()); err != nil {
		return nil, nil, "", err
	}

	// The write path of this workload: small strategy-report batches.
	_, decMs := probeFrames(m, q.reports.batches[0])
	mem, err := ldp.NewCollector(q.agg, ldp.Histogram(q.n), 0)
	if err != nil {
		return nil, nil, "", err
	}
	i := 0
	ingMs := probe(func() {
		_ = mem.IngestBatchKeyed(q.reports.batches[i%q.poolBatches], fmt.Sprintf("probe-%d", i))
		i++
	})
	quiet, err := dial(q.tier.ln.url)
	if err != nil {
		return nil, nil, "", err
	}
	defer quiet.tr.CloseIdleConnections()
	j := 0
	var perr error
	postMs := probe(func() {
		n, err := quiet.PostReportsKeyed(ctx, q.reports.batches[j%q.poolBatches], fmt.Sprintf("s%d-quiet-%d", q.cfg.seed, j))
		if err != nil || n != q.perBatch {
			perr = fmt.Errorf("probe POST: accepted %d: %v", n, err)
		}
		q.acked.Add(int64(n))
		j++
	})
	if perr != nil {
		return nil, nil, "", perr
	}
	m["collector.ingest_us_per_batch"] = value{Value: ingMs * 1e3, Stat: "p50", Means: "Collector.IngestBatchKeyed, memory-only, 64-report batches"}
	m["strategy.absorb_ns_per_report"] = value{Value: ingMs * 1e6 / float64(q.perBatch), Stat: "p50", Means: "the same per report (check + absorb + shard lock)"}
	m["transport.shard_post_us"] = value{Value: postMs * 1e3, Stat: "p50", Means: "the same batches POSTed on a quiet connection, no reader"}
	m["transport.http_overhead_us"] = value{Value: (postMs - decMs - ingMs) * 1e3, Stat: "derived", Means: "shard_post − decode − ingest"}

	// The read path, per query of the refresh, on the live snapshot.
	snap := q.col.Snap()
	m["collector.snap_hit_us"] = value{Value: probe(func() { q.col.Snap() }) * 1e3, Stat: "p50", Means: "Collector.Snap, quiescent (cached merge)"}
	missUs, err := probeSnapMiss(m, mem, q.reports.batches)
	if err != nil {
		return nil, nil, "", err
	}
	sc, err := scrape(q.svc.Metrics())
	if err != nil {
		return nil, nil, "", err
	}
	hits, merges := sampleValue(sc, "ldp_collector_snapshot_cache_hits_total", ""), sampleValue(sc, "ldp_collector_snapshot_merges_total", "")
	if hits+merges > 0 {
		m["collector.snap_hit_ratio"] = value{Value: hits / (hits + merges), Stat: "count", Means: "/metrics: snapshot cache hits ÷ (hits + merges)"}
	}

	var recon, answers, variance, encode, decode, build float64
	var wireBytes int
	for k, req := range q.refresh {
		w, err := ldp.WorkloadByName(req.Workload, q.n)
		if err != nil {
			return nil, nil, "", err
		}
		est, err := ldp.NewEstimator(q.agg, w)
		if err != nil {
			return nil, nil, "", err
		}
		if k == 0 {
			build = probe(func() {
				if e, err := ldp.NewEstimator(q.agg, w); err == nil {
					_, _ = e.Answers(snap)
				}
			})
		}
		recon += probe(func() { _, _ = est.DataEstimate(snap) })
		answers += probe(func() { _, _ = est.Answers(snap) })
		if req.WantCI || req.WantVariance {
			variance += probe(func() { _ = est.VarianceStream(snap, func(int, float64) bool { return true }) })
		}
		info := transport.QueryResultInfo{Count: snap.Count(), Epoch: snap.Epoch(), TotalRows: w.Queries(), HasVariance: req.WantCI || req.WantVariance, HasCI: req.WantCI}
		writeRows := func(out io.Writer) {
			qw, err := transport.NewQueryResultWriter(out, info)
			if err != nil {
				return
			}
			for r := 0; r < info.TotalRows; r++ {
				_ = qw.WriteRow(transport.QueryRow{Index: r, Answer: 1, Variance: 1, Low: 0, High: 2})
			}
			_ = qw.Close()
		}
		encode += probe(func() { writeRows(io.Discard) })
		var body bytes.Buffer
		writeRows(&body)
		wireBytes += body.Len()
		decode += probe(func() {
			_, _ = transport.DecodeQueryResult(bytes.NewReader(body.Bytes()), func(transport.QueryRow) bool { return true })
		})
	}
	m["estimator.build_ms"] = value{Value: build, Stat: "p50", Means: "NewEstimator(AllRange) + first Answers"}
	m["estimator.reconstruct_ms"] = value{Value: recon, Stat: "p50 sum", Means: "DataEstimate on the live snapshot, the refresh's three workloads summed"}
	m["estimator.answers_ms"] = value{Value: answers, Stat: "p50 sum", Means: "Answers (reconstruct + W·x̂), three workloads summed"}
	m["estimator.variance_stream_ms"] = value{Value: variance, Stat: "p50 sum", Means: "VarianceStream for AllRange and Prefix (row-at-a-time W·B)"}
	m["transport.query_encode_ms"] = value{Value: encode, Stat: "p50 sum", Means: "QueryResultWriter.WriteRow × rows to io.Discard, three results summed"}
	m["transport.query_decode_ms"] = value{Value: decode, Stat: "p50 sum", Means: "DecodeQueryResult of the same bytes"}
	m["transport.query_bytes"] = value{Value: float64(wireBytes), Stat: "count", Means: "result bytes per refresh"}
	firstRow, _ := q.firstRowMs.quantile(0.5)
	m["transport.query_first_row_ms"] = value{Value: firstRow, Stat: "p50", Samples: q.firstRowMs.n(), Means: "query_first_row_ms: refresh start → first AllRange row at the client"}

	lateP99, stat := q.late.quantile(0.99)
	lateStat := "p99"
	if stat != nil { // a smoke-sized window: too few sends for a p99, so the max stands in
		lateP99, lateStat = q.late.max(), "max: "+stat.Error()
	}
	m["loadgen.late_p99_ms"] = value{Value: lateP99, Stat: lateStat, Samples: q.late.n(),
		Means: fmt.Sprintf("how late the open-loop writer sent, vs its schedule (%.2f %% of scheduled POSTs never sent)", 100*q.behind)}

	// One refresh as the server sees it: three /query requests.
	shares := []share{
		{Layer: "collector.snap (miss)", Ms: 3 * missUs / 1e3},
		{Layer: "estimator.answers", Ms: answers},
		{Layer: "estimator.variance_stream", Ms: variance},
		{Layer: "transport.query_encode", Ms: encode},
	}
	return m, finishShares(shares, totalMs(stats, "shard.handle/query")/refreshes), "shard.handle/query ×3", nil
}

// probeStrategyPool times what set-up pays for a served strategy: resolution
// three ways on an empty cache directory (the optimizer run, the in-memory
// memo, a fresh pool loading the persisted entry) and the aggregator built
// from the result.
func probeStrategyPool(m map[string]value, dir string, w ldp.Workload, strat *ldp.Strategy, opts []ldp.OptimizeOption) error {
	ctx := context.Background()
	cold := ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir))
	t0 := time.Now()
	if _, err := cold.Strategy(ctx, w, 1, opts...); err != nil {
		return err
	}
	m["pool.strategy_cold_ms"] = value{Value: time.Since(t0).Seconds() * 1e3, Stat: "one call", Means: "EstimatorPool.Strategy, empty cache dir: the optimizer runs"}
	m["pool.strategy_warm_ms"] = value{Value: probe(func() { _, _ = cold.Strategy(ctx, w, 1, opts...) }), Stat: "p50", Means: "the same pool again: in-memory memo"}
	m["pool.strategy_restart_ms"] = value{Value: probe(func() {
		_, _ = ldp.NewEstimatorPool(ldp.WithPoolCacheDir(dir)).Strategy(ctx, w, 1, opts...)
	}), Stat: "p50", Means: "a fresh pool on the same cache dir: digest-verified load, no optimizer"}
	m["strategy.aggregator_build_ms"] = value{Value: probe(func() { _, _ = ldp.NewAggregator(strat) }), Stat: "p50", Means: "ldp.NewAggregator(strategy): the reconstruction matrix"}
	return nil
}
