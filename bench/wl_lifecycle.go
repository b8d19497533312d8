package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	ldp "repro"
)

// lifecycle is a library user's embedded collector, no HTTP: cycles of
// open-with-recovery → two goroutines ingest optimized-strategy reports
// through the WAL (three automatic checkpoints and a 32k-report tail) → Snap →
// AnswerBatch twice (miss, then answer-cache hit) → SnapAt over the retained
// epochs → Close without a checkpoint, so the next open replays the tail.
// durable, history, collector and pool dominate; transport is bypassed.
type lifecycle struct {
	cfg                    config
	n, m, perBatch, perGor int // domain, outputs, reports per batch, batches per goroutine and cycle
	optIters               []ldp.OptimizeOption
	durability             []ldp.DurabilityOption

	cacheDir, dir string
	pool          *ldp.EstimatorPool
	strat         *ldp.Strategy
	agg           ldp.Aggregator
	work          ldp.Workload
	batch         []ldp.Workload // what AnswerBatch answers each cycle
	reports       *batchPool     // goroutine g ingests batches [g·perGor, (g+1)·perGor)
	cum           [2][][]float64 // cum[g][k] = accumulator after goroutine g's first k batches

	cycles int
	prev   ldp.Snapshot        // the snapshot taken just before the last Close
	cut    map[uint64]cutState // epoch → what its checkpoint held when first read back

	missMs, hitMs, snapAtMs samples // traced window only
	newEpochs               float64

	reopensOK, epochsOK, hitsOK int // comparisons that held, since set-up
}

// cutState is a historical snapshot as first served.
type cutState struct {
	state []float64
	count float64
}

const goroutines = 2

func newLifecycle(cfg config) *lifecycle {
	// The library user's durable open: default checkpoint interval (65,536
	// reports), an eight-checkpoint full-resolution history window, buffered WAL.
	l := &lifecycle{cfg: cfg, n: 64, m: 256, perBatch: 64, perGor: 1792, durability: []ldp.DurabilityOption{ldp.HistoryKeep(8)}}
	if cfg.smoke {
		l.n, l.m, l.perBatch, l.perGor = 16, 64, 16, 112
		l.optIters = []ldp.OptimizeOption{ldp.WithIterations(30)}
		// Scaled with the cycle, so a smoke cycle also cuts three checkpoints
		// and leaves a tail.
		l.durability = append(l.durability, ldp.CheckpointEvery(1024))
	}
	return l
}

func (l *lifecycle) why() string {
	return "embedded durable collector, no HTTP: WAL, checkpoints, recovery, history and pool dominate, transport bypassed"
}

func (l *lifecycle) describe() (map[string]string, string) {
	return map[string]string{
		"setup_s":     "EstimatorPool.Strategy cold (Prefix n=64, m=256) on an empty cache dir, aggregator, 229k-report pool",
		"op_p50_ms":   "lifecycle_ms: one whole cycle, open → ingest → Snap → AnswerBatch×2 → SnapAt×epochs → Close",
		"op_tail_ms":  "the same, p90",
		"side_p50_ms": "recover_ms: NewCollector(WithDurability) on a checkpoint plus a ~32k-report WAL tail",
		"work_per_s":  "ingest_reports_per_s: reports through IngestBatchKeyed per second of ingest phase (2 goroutines)",
	}, "p90"
}

func (l *lifecycle) setup() error {
	var err error
	if l.cacheDir, err = os.MkdirTemp(l.cfg.dataDir, "cache-"); err != nil {
		return err
	}
	if l.dir, err = os.MkdirTemp(l.cfg.dataDir, "embedded-"); err != nil {
		return err
	}
	l.work = ldp.Prefix(l.n)
	l.batch = []ldp.Workload{ldp.Prefix(l.n), ldp.AllRange(l.n), ldp.Histogram(l.n)}
	l.pool = ldp.NewEstimatorPool(ldp.WithPoolCacheDir(l.cacheDir))
	if l.strat, err = l.pool.Strategy(context.Background(), l.work, 1, l.strategyOptions()...); err != nil {
		return err
	}
	if l.agg, err = ldp.NewAggregator(l.strat); err != nil {
		return err
	}
	r, err := ldp.NewRandomizer(l.strat)
	if err != nil {
		return err
	}
	if l.reports, err = newBatchPool(r, rand.New(rand.NewSource(l.cfg.seed)), goroutines*l.perGor, l.perBatch); err != nil {
		return err
	}
	for g := range l.cum {
		l.cum[g] = make([][]float64, l.perGor+1)
		acc := make([]float64, l.agg.StateLen())
		l.cum[g][0] = append([]float64(nil), acc...)
		for k := 0; k < l.perGor; k++ {
			for _, rep := range l.reports.batches[g*l.perGor+k] {
				if err := l.agg.Absorb(acc, rep); err != nil {
					return err
				}
			}
			l.cum[g][k+1] = append([]float64(nil), acc...)
		}
	}
	l.cycles, l.prev = 0, ldp.Snapshot{}
	l.reopensOK, l.epochsOK, l.hitsOK = 0, 0, 0
	l.cut = map[uint64]cutState{}
	return nil
}

func (l *lifecycle) strategyOptions() []ldp.OptimizeOption {
	return append([]ldp.OptimizeOption{ldp.WithOutputs(l.m), ldp.WithSeed(l.cfg.seed)}, l.optIters...)
}

func (l *lifecycle) teardown() {
	os.RemoveAll(l.cacheDir)
	os.RemoveAll(l.dir)
}

func (l *lifecycle) warmup() (*window, error) { return l.run(l.cfg.warmup, nil) }

func (l *lifecycle) open(dir string) (*ldp.Collector, error) {
	return ldp.NewCollector(l.agg, l.work, 0, ldp.WithDurability(dir, l.durability...))
}

func (l *lifecycle) run(d time.Duration, tr *tracer) (*window, error) {
	win := &window{detail: map[string]float64{}}
	l.missMs, l.hitMs, l.snapAtMs, l.newEpochs = samples{}, samples{}, samples{}, 0
	start := time.Now()
	for time.Since(start) < d {
		if err := l.cycle(win, tr); err != nil {
			return nil, err
		}
	}
	win.elapsed = time.Since(start)
	return win, nil
}

// cycle runs one lifecycle. An error return is a harness failure; a failed
// operation of the system under test is counted in win and the cycle goes on
// where it can.
func (l *lifecycle) cycle(win *window, tr *tracer) error {
	first := l.cycles == 0
	l.cycles++
	root := tr.begin("lifecycle.cycle", -1, "")
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("collector.open", root, "")
	col, err := l.open(l.dir)
	tr.end(sp)
	win.attempted++
	if err != nil {
		win.failed++
		return fmt.Errorf("open %s: %w", l.dir, err)
	}
	if !first { // the empty-directory open recovers nothing and is not a sample
		win.side.add(time.Since(t0).Seconds() * 1e3)
	}
	base := col.Snap()
	if !first {
		if err := sameSnapshot(base, l.prev); err != nil {
			win.problemf("cycle %d: reopened state differs from the pre-close snapshot: %v", l.cycles, err)
		} else {
			l.reopensOK++
		}
	}

	// Ingest: two goroutines, their own batch ranges, keys unique per cycle.
	tIngest := time.Now()
	phase := tr.begin("collector.ingest", root, "")
	var wg sync.WaitGroup
	errs := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sp := tr.begin("collector.ingest.goroutine", phase, "")
			defer tr.end(sp)
			key := make([]byte, 0, 32)
			for k := 0; k < l.perGor; k++ {
				// strconv, not fmt: key building is generator time inside
				// the timed ingest phase, and an ingest is about a microsecond.
				key = strconv.AppendInt(key[:0], int64(l.cycles), 10)
				key = strconv.AppendInt(append(key, '-'), int64(g), 10)
				key = strconv.AppendInt(append(key, '-'), int64(k), 10)
				if col.IngestBatchKeyed(l.reports.batches[g*l.perGor+k], string(key)) != nil {
					errs[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	tr.end(phase)
	win.workS += time.Since(tIngest).Seconds()
	win.attempted += goroutines * l.perGor
	for _, e := range errs {
		win.failed += e
		win.work -= float64(e * l.perBatch)
	}
	win.work += float64(goroutines * l.perGor * l.perBatch)

	sp = tr.begin("collector.snap", root, "")
	snap := col.Snap()
	tr.end(sp)
	if want := base.Count() + float64(goroutines*l.perGor*l.perBatch); snap.Count() != want && errs[0]+errs[1] == 0 {
		win.problemf("cycle %d: Snap count %v after ingest, want %v", l.cycles, snap.Count(), want)
	}

	// The same batch twice: estimator/row sharing on the miss, the per-epoch
	// answer cache on the hit. The hit must be byte-identical.
	var answers [2][]ldp.BatchAnswer
	for i, name := range []string{"pool.answer_batch.miss", "pool.answer_batch.hit"} {
		t := time.Now()
		sp = tr.begin(name, root, "")
		answers[i], err = l.pool.AnswerBatch(l.agg, snap, l.batch, ldp.WithBatchVariance())
		tr.end(sp)
		win.attempted++
		if err != nil {
			win.failed++
			win.problemf("cycle %d: AnswerBatch: %v", l.cycles, err)
		}
		if tr != nil {
			[]*samples{&l.missMs, &l.hitMs}[i].add(time.Since(t).Seconds() * 1e3)
		}
	}
	if err == nil {
		if err := sameAnswers(answers[0], answers[1]); err != nil {
			win.problemf("cycle %d: answer-cache hit differs from the miss: %v", l.cycles, err)
		} else {
			l.hitsOK++
		}
	}

	retained := col.RetainedEpochs()
	keep := make(map[uint64]bool, len(retained))
	for _, e := range retained {
		keep[e] = true
		t := time.Now()
		sp = tr.begin("collector.snapat", root, "")
		s, err := col.SnapAt(e)
		tr.end(sp)
		if tr != nil {
			l.snapAtMs.add(time.Since(t).Seconds() * 1e3)
		}
		win.attempted++
		if err != nil {
			win.failed++
			continue
		}
		if err := l.checkEpoch(e, s, base); err != nil {
			win.problemf("cycle %d: SnapAt(%d): %v", l.cycles, e, err)
		} else {
			l.epochsOK++
		}
	}
	for e := range l.cut {
		if !keep[e] {
			delete(l.cut, e)
		}
	}
	win.detail["epochs_read"] += float64(len(retained))

	l.prev = col.Snap()
	sp = tr.begin("collector.close", root, "")
	err = col.Close()
	tr.end(sp)
	win.attempted++
	if err != nil {
		win.failed++
		win.problemf("cycle %d: Close: %v", l.cycles, err)
	}
	win.op.add(time.Since(t0).Seconds() * 1e3)
	return nil
}

// checkEpoch verifies one historical read. An epoch seen before must read
// back exactly as it did then. A new epoch was cut during this cycle's
// ingest, between whole batches of the two goroutines, so its state must be
// the cycle's starting state plus some prefix of each goroutine's batches:
// base + cum[0][a] + cum[1][b] with (a+b)·perBatch reports — found by search,
// every value an exact integer.
func (l *lifecycle) checkEpoch(e uint64, s, base ldp.Snapshot) error {
	if s.Epoch() != e {
		return fmt.Errorf("served epoch %d", s.Epoch())
	}
	state := s.State()
	if old, ok := l.cut[e]; ok {
		if s.Count() != old.count {
			return fmt.Errorf("count %v, was %v when first read", s.Count(), old.count)
		}
		return sameState(state, old.state)
	}
	l.newEpochs++
	batches := (s.Count() - base.Count()) / float64(l.perBatch)
	if batches < 0 || batches != math.Trunc(batches) || batches > float64(goroutines*l.perGor) {
		return fmt.Errorf("count %v is not the cycle's start %v plus whole batches", s.Count(), base.Count())
	}
	k, b0 := int(batches), base.State()
	for a := max(0, k-l.perGor); a <= min(k, l.perGor); a++ {
		ca, cb := l.cum[0][a], l.cum[1][k-a]
		match := true
		for i := range state {
			if state[i] != b0[i]+ca[i]+cb[i] {
				match = false
				break
			}
		}
		if match {
			l.cut[e] = cutState{state, s.Count()}
			return nil
		}
	}
	return fmt.Errorf("state is not the cycle's start plus a prefix of each goroutine's batches (%d batches in)", k)
}

// sameAnswers reports whether two AnswerBatch results are byte-identical.
func sameAnswers(a, b []ldp.BatchAnswer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if err := sameState(a[i].Answers, b[i].Answers); err != nil {
			return fmt.Errorf("%s answers: %w", a[i].Workload.Name(), err)
		}
		if err := sameState(a[i].Variance, b[i].Variance); err != nil {
			return fmt.Errorf("%s variances: %w", a[i].Workload.Name(), err)
		}
	}
	return nil
}

func (l *lifecycle) verify() []check {
	col, err := l.open(l.dir)
	if err != nil {
		return []check{{Name: "final reopen", Detail: err.Error()}}
	}
	defer col.Close()
	err = sameSnapshot(col.Snap(), l.prev)
	detail := fmt.Sprintf("%d cycles, %.0f reports recovered", l.cycles, l.prev.Count())
	if err != nil {
		detail = err.Error()
	}
	return []check{
		{Name: "reopen == pre-close snapshot, SnapAt(e) == the state cut at e, cache hit == miss", OK: l.reopensOK > 0 && l.epochsOK > 0 && l.hitsOK > 0,
			Detail: fmt.Sprintf("held for %d reopens, %d historical reads, %d cache hits (violations are listed as 'during run')", l.reopensOK, l.epochsOK, l.hitsOK)},
		{Name: "final reopen bit-identical to the last pre-close snapshot", OK: err == nil, Detail: detail},
	}
}

func (l *lifecycle) layers(base, traced *window, stats []spanStat) (map[string]value, []share, string, error) {
	m := map[string]value{}
	per := float64(l.perBatch)
	cycles := float64(traced.op.n())

	coldDir, err := os.MkdirTemp(l.cfg.dataDir, "cold-")
	if err != nil {
		return nil, nil, "", err
	}
	defer os.RemoveAll(coldDir)
	if err := probeStrategyPool(m, coldDir, l.work, l.strat, l.strategyOptions()); err != nil {
		return nil, nil, "", err
	}

	acc := make([]float64, l.agg.StateLen())
	absorb := probe(func() {
		for _, r := range l.reports.batches[0] {
			_ = l.agg.Absorb(acc, r)
		}
	})
	m["strategy.absorb_ns_per_report"] = value{Value: absorb * 1e6 / per, Stat: "p50", Means: "strategy aggregator Absorb"}

	ing, err := probeIngest(l.cfg, l.agg, l.work, l.reports.batches)
	if err != nil {
		return nil, nil, "", err
	}
	ing.fill(m, per)
	gc, err := l.probeGroupCommit()
	if err != nil {
		return nil, nil, "", err
	}
	m["durable.group_commits_per_append"] = value{Value: gc, Stat: "count", Means: "WAL group commits ÷ appended batches, 2 goroutines, from /metrics"}
	m["durable.checkpoints"] = value{Value: l.newEpochs / cycles, Stat: "mean", Means: "automatic checkpoints cut per cycle"}

	// Recovery split: the live directory holds a checkpoint plus a tail
	// (cycles close without checkpointing, so reopening is repeatable); after
	// a forced checkpoint the same open has nothing to replay.
	recoverMs, _ := traced.side.quantile(0.5)
	withTail, err := l.probeReopen(5)
	if err != nil {
		return nil, nil, "", err
	}
	var rAllocs, rBytes float64
	rAllocs, rBytes = allocsOf(func() {
		if c, e := l.open(l.dir); e == nil {
			c.Close()
		}
	})
	col, err := l.open(l.dir)
	if err != nil {
		return nil, nil, "", err
	}
	if err := col.Checkpoint(); err != nil {
		col.Close()
		return nil, nil, "", err
	}
	epochs := col.RetainedEpochs()
	i := 0
	snapAt := probe(func() {
		_, _ = col.SnapAt(epochs[i%len(epochs)])
		i++
	})
	saAllocs, _ := allocsOf(func() { _, _ = col.SnapAt(epochs[0]) })
	hit := probe(func() { col.Snap() })
	if err := col.Close(); err != nil {
		return nil, nil, "", err
	}
	noTail, err := l.probeReopen(5)
	if err != nil {
		return nil, nil, "", err
	}
	m["durable.recover_ms"] = value{Value: recoverMs, Stat: "p50", Samples: traced.side.n(), Means: "recover_ms as the traced window saw it"}
	m["durable.recover_replay_ms"] = value{Value: withTail - noTail, Stat: "p50 − p50", Means: fmt.Sprintf("reopen with the WAL tail (%.3f ms) minus reopen right after a checkpoint (%.3f ms)", withTail, noTail)}
	m["durable.recover_allocs"] = value{Value: rAllocs, Stat: "one call", Means: "heap allocations of one open + close on checkpoint + tail"}
	m["durable.recover_bytes"] = value{Value: rBytes, Stat: "one call"}
	m["history.snapat_ms"] = value{Value: snapAt, Stat: "p50", Means: fmt.Sprintf("Collector.SnapAt, rotating over %d retained epochs", len(epochs))}
	m["history.snapat_allocs"] = value{Value: saAllocs, Stat: "one call"}
	m["collector.snap_hit_us"] = value{Value: hit * 1e3, Stat: "p50", Means: "Collector.Snap, quiescent (cached merge)"}

	mem, err := ldp.NewCollector(l.agg, l.work, 0)
	if err != nil {
		return nil, nil, "", err
	}
	if _, err := probeSnapMiss(m, mem, l.reports.batches); err != nil {
		return nil, nil, "", err
	}

	missMs, _ := l.missMs.quantile(0.5)
	hitMs, _ := l.hitMs.quantile(0.5)
	m["pool.answer_batch_miss_ms"] = value{Value: missMs, Stat: "p50", Samples: l.missMs.n(), Means: "first AnswerBatch([Prefix, AllRange, Histogram], variance) on a new epoch"}
	m["pool.answer_batch_hit_ms"] = value{Value: hitMs, Stat: "p50", Samples: l.hitMs.n(), Means: "the same call again: per-epoch answer cache"}
	st := l.pool.Stats()
	if d := float64(st.EstimatorHits + st.EstimatorBuilds); d > 0 {
		m["pool.estimator_hit_ratio"] = value{Value: float64(st.EstimatorHits) / d, Stat: "count", Means: "PoolStats: estimator hits ÷ (hits + builds)"}
	}
	m["pool.shared_row_hits"] = value{Value: float64(st.SharedRowHits), Stat: "count", Means: "PoolStats.SharedRowHits since set-up"}

	// One cycle: the phases run one after the other; the two ingesting
	// goroutines run side by side, so a cycle waits for perGor appends.
	perCycleEpochs := traced.detail["epochs_read"] / cycles
	shares := []share{
		{Layer: "durable recovery (open)", Ms: withTail},
		{Layer: "collector.ingest (check + absorb)", Ms: float64(l.perGor) * ing.memoryMs},
		{Layer: "durable.append", Ms: float64(l.perGor) * (ing.durableMs - ing.memoryMs)},
		{Layer: "durable.checkpoint", Ms: l.newEpochs / cycles * ing.checkpointMs},
		{Layer: "pool.answer_batch (miss + hit)", Ms: missMs + hitMs},
		{Layer: "history.snapat", Ms: perCycleEpochs * snapAt},
	}
	return m, finishShares(shares, totalMs(stats, "lifecycle.cycle")/cycles), "lifecycle.cycle", nil
}

// probeReopen times n opens of the live directory, closing (without a
// checkpoint, so the next open finds the same work) in between, and returns
// the median in ms.
func (l *lifecycle) probeReopen(n int) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		col, err := l.open(l.dir)
		if err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds()*1e3)
		if err := col.Close(); err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// probeGroupCommit ingests one goroutine-pair's worth of batches into a
// durable collector whose metrics are armed (binding it to a service arms
// them; nothing is served) and reads commits ÷ appends from the exposition.
func (l *lifecycle) probeGroupCommit() (float64, error) {
	dir, err := os.MkdirTemp(l.cfg.dataDir, "commit-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	col, err := l.open(dir)
	if err != nil {
		return 0, err
	}
	defer col.Close()
	svc, err := ldp.NewCollectorService(col, ldp.MechanismInfoOf(l.agg))
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < l.perGor; k++ {
				_ = col.IngestBatchKeyed(l.reports.batches[g*l.perGor+k], fmt.Sprintf("gc-%d-%d", g, k))
			}
		}(g)
	}
	wg.Wait()
	sc, err := scrape(svc.Metrics())
	if err != nil {
		return 0, err
	}
	appends := sampleValue(sc, "ldp_collector_ingest_batches_total", "")
	if appends == 0 {
		return 0, fmt.Errorf("no appends in the exposition")
	}
	return sampleValue(sc, "ldp_wal_commit_bytes_count", "") / appends, nil
}
