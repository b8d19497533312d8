package loadgen

import (
	"context"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	ldp "repro"
	"repro/internal/chaos"
)

// RunConfig is one simulator run: a scenario (traffic shape + faults) driven
// against a deployment this run builds and tears down.
type RunConfig struct {
	Scenario Scenario
	Deploy   DeployConfig
	// TargetRPS paces the offered load (0 = as fast as the pipeline takes
	// it). Phase arrival weights scale the instantaneous rate, so a {1,4,1}
	// arrival shape is a real 4× burst in time, not just population. Pacing
	// affects timing only — never counts.
	TargetRPS float64
	// SettleTimeout bounds the settle phase (default 2 minutes): heal, let
	// killed shards recover, and flush until every offered report is
	// acknowledged.
	SettleTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Run executes the scenario and returns the scorecard. The deterministic
// sections (Counts, Estimates) are bit-identical across runs at the same
// seed; Ops varies.
func Run(ctx context.Context, cfg RunConfig) (*Scorecard, error) {
	scn := cfg.Scenario
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 2 * time.Minute
	}

	pop := buildPopulation(&scn)
	logf("population: %d clients, %d participants, %d abandoned, truth mass %.0f",
		scn.Clients, pop.Participants, pop.Abandoned, float64(pop.Participants))

	// The deployment inherits the scenario's mechanism identity.
	dcfg := cfg.Deploy
	dcfg.Shard.Mechanism = scn.Mechanism
	dcfg.Shard.Domain = scn.Domain
	dcfg.Shard.Epsilon = scn.Epsilon
	if dcfg.Seed == 0 {
		dcfg.Seed = scn.Seed
	}
	d, err := Deploy(ctx, dcfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	logf("deployed: router %s fronting %d shard(s)", d.RouterURL, dcfg.Shards)

	card := &Scorecard{
		Scenario: scn.Name, Seed: scn.Seed, Mechanism: scn.Mechanism,
		Domain: scn.Domain, Epsilon: scn.Epsilon, Shards: dcfg.Shards,
	}
	card.Counts.Clients = int64(scn.Clients)
	card.Counts.Abandoned = pop.Abandoned
	card.Counts.Participants = pop.Participants
	card.Counts.OfferedReports = pop.Participants
	card.Counts.TruthTotal = float64(pop.Participants)
	card.Counts.ScheduleEvents = len(scn.Schedule)

	policy := ldp.DefaultRemoteRetryPolicy()
	if scn.RetryStorm {
		// Storm discipline: many fast attempts. Combined with lossy fault
		// plans this hammers the idempotency layer with duplicate sends.
		policy.MaxAttempts = 8
		policy.InitialBackoff = 10 * time.Millisecond
		policy.MaxBackoff = 250 * time.Millisecond
	}

	w := ldp.Histogram(scn.Domain)

	// One RemoteCollector per worker: private buffers (deterministic batch
	// composition from the static client partition).
	collectors := make([]*ldp.RemoteCollector, scn.Workers)
	for i := range collectors {
		opts := []ldp.RemoteOption{ldp.WithRemoteRetryPolicy(policy)}
		if scn.Batch > 0 {
			opts = append(opts, ldp.WithRemoteBatch(scn.Batch))
		}
		rc, err := ldp.NewRemoteCollector(d.RouterURL, d.mech.Agg, w, opts...)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		collectors[i] = rc
	}

	// The fault scheduler: fires schedule events as offered-load progress
	// crosses their thresholds, and tracks the worst readiness dip. It also
	// stops the workers when a shard process exits on its own: the run has
	// failed, and offering the rest of the load would only wait on retries.
	workCtx, stopWork := context.WithCancel(ctx)
	defer stopWork()
	sched := chaos.NewSchedule(scn.Schedule...)
	var offered atomic.Int64
	fired := 0
	minReady := dcfg.Shards
	schedDone := make(chan struct{})
	schedStop := make(chan struct{})
	go func() {
		defer close(schedDone)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-schedStop:
				return
			case <-ticker.C:
				if d.err() != nil {
					stopWork()
					return
				}
				if r := d.ReadyCount(); r < minReady {
					minReady = r
				}
				progress := float64(offered.Load()) / float64(max(pop.Participants, 1))
				for _, ev := range sched.Due(progress) {
					logf("schedule: %s shard %d at progress %.2f", ev.Kind, ev.Shard, progress)
					if err := d.Apply(ctx, ev); err != nil {
						logf("schedule: %s shard %d failed: %v", ev.Kind, ev.Shard, err)
						continue
					}
					fired++
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, scn.Workers)
	for wi := 0; wi < scn.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			workerErrs[wi] = runWorker(workCtx, &scn, pop, collectors[wi], wi, &offered, cfg.TargetRPS, start)
		}(wi)
	}
	wg.Wait()
	werr := d.err()
	for _, err := range workerErrs {
		if werr == nil {
			werr = err
		}
	}
	if werr != nil {
		close(schedStop)
		<-schedDone
		return nil, werr
	}
	logf("offered all %d reports in %v; settling", pop.Participants, time.Since(start).Round(time.Millisecond))

	// Fire whatever the schedule still holds (heals, restarts) before
	// settling — progress is complete by definition now.
	for _, ev := range sched.Due(1.0) {
		logf("schedule (settle): %s shard %d", ev.Kind, ev.Shard)
		if err := d.Apply(ctx, ev); err != nil {
			return nil, fmt.Errorf("loadgen: settle-phase %s on shard %d: %w", ev.Kind, ev.Shard, err)
		}
		fired++
	}
	close(schedStop)
	<-schedDone
	card.Counts.ScheduleFired = fired

	// Settle: every shard back in rotation, then flush until every buffered
	// batch is acknowledged. This loop is what turns "retry until success"
	// into the deterministic acked == offered invariant. A shard process that
	// exits on its own from here on fails the run in the wait, in the flush
	// loop or before the score.
	settleCtx, cancel := context.WithTimeout(ctx, cfg.SettleTimeout)
	defer cancel()
	if err := d.waitReady(settleCtx, dcfg.Shards, cfg.SettleTimeout); err != nil {
		return nil, fmt.Errorf("loadgen: settle: %w", err)
	}
	for {
		allFlushed := true
		for _, rc := range collectors {
			if err := rc.Flush(settleCtx); err != nil {
				allFlushed = false
			}
		}
		if allFlushed {
			break
		}
		if err := d.err(); err != nil {
			return nil, err
		}
		select {
		case <-settleCtx.Done():
			return nil, fmt.Errorf("loadgen: settle: unflushed batches after %v", cfg.SettleTimeout)
		case <-time.After(100 * time.Millisecond):
		}
	}
	card.Counts.AckedReports = pop.Participants
	elapsed := time.Since(start)

	// Final read: merged snapshot + coverage, estimates vs ground truth.
	snap, cov, err := d.Snap(settleCtx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final snapshot: %w", err)
	}
	card.Counts.AbsorbedReports = int64(snap.Count() + 0.5)
	card.Counts.ExactlyOnce = card.Counts.AbsorbedReports == card.Counts.AckedReports
	est := d.mech.Agg.EstimateCounts(snap.State(), snap.Count())
	card.Estimates, err = scoreEstimates(d.mech, est, pop.Truth, snap.Count())
	if err != nil {
		return nil, err
	}

	// Ops: duration, coverage, WAL facts, chaos counters.
	card.Ops.DurationSec = elapsed.Seconds()
	card.Ops.ShardsMerged = cov.Merged()
	card.Ops.ShardsTotal = cov.Total
	card.Ops.ShardsStale = cov.Stale
	card.Ops.MinShardsReady = minReady
	healths := d.ShardHealth(settleCtx)
	for _, h := range healths {
		if h.Durability == nil {
			continue
		}
		card.Ops.WALRecordLag += h.Durability.WALRecordLag
		card.Ops.WALByteLag += h.Durability.WALByteLag
		if h.Durability.CheckpointSeq > card.Ops.CheckpointSeq {
			card.Ops.CheckpointSeq = h.Durability.CheckpointSeq
		}
	}
	// Telemetry reconciliation: the /metrics view must agree with the
	// /healthz facts just polled; a disagreement fails the card.
	card.Ops.Metrics = d.MetricsCheck(settleCtx, healths)
	card.Ops.Chaos = d.ChaosStats()
	if err := d.err(); err != nil {
		return nil, err
	}

	logf("scorecard: acked=%d absorbed=%d exactly-once=%v max-cell-err=%.1f (envelope %.1f) in-envelope=%v metrics-agree=%v",
		card.Counts.AckedReports, card.Counts.AbsorbedReports, card.Counts.ExactlyOnce,
		card.Estimates.MaxAbsCellError, card.Estimates.CellEnvelope, card.Estimates.InEnvelope,
		card.Ops.Metrics.Agree)
	return card, nil
}

// runWorker offers this worker's static slice of the client population:
// derive each client's deterministic behavior, randomize its report from its
// private stream, and hand full batches to the worker's RemoteCollector.
// Offered progress advances as reports are generated (buffered locally), so
// the fault scheduler keeps moving even while shipping is stalled — and a
// stuck batch costs one retry cycle per batch, not per client. Transient
// ship errors are the retry discipline's business (the settle phase
// guarantees delivery); only report construction errors abort the run.
func runWorker(ctx context.Context, scn *Scenario, pop *population, rc *ldp.RemoteCollector,
	wi int, offered *atomic.Int64, targetRPS float64, start time.Time) error {
	lo, hi := workerRange(scn.Clients, scn.Workers, wi)
	client, err := ldp.NewClient(pop.scn.rzOf())
	if err != nil {
		return fmt.Errorf("loadgen: worker %d: %w", wi, err)
	}
	src := mrand.NewSource(1)
	rng := mrand.New(src)
	perWorkerRPS := targetRPS / float64(scn.Workers)
	batchSize := scn.Batch
	if batchSize <= 0 {
		batchSize = 1024
	}
	pending := make([]ldp.Report, 0, batchSize)
	sent := 0
	for c := lo; c < hi; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		item, abandoned := pop.client(c)
		if abandoned {
			continue
		}
		// The report stream is the client's own: seeded from (seed, client),
		// independent of worker assignment.
		src.Seed(int64(clientSeed(scn.Seed, c) >> 1)) // >>1: Seed takes int64, keep it non-negative
		rep, err := client.Randomize(item, rng)
		if err != nil {
			return fmt.Errorf("loadgen: randomize client %d: %w", c, err)
		}
		pending = append(pending, rep)
		offered.Add(1)
		sent++
		if len(pending) >= batchSize {
			_ = rc.IngestBatch(ctx, pending) // transient errors settle later
			pending = pending[:0]
		}
		if perWorkerRPS > 0 {
			pace(ctx, scn, pop, c, sent, perWorkerRPS, start)
		}
	}
	if len(pending) > 0 {
		_ = rc.IngestBatch(ctx, pending)
	}
	return nil
}

// pace sleeps just enough to hold the worker near its per-phase target rate:
// the base rate scaled by the current phase's arrival weight (relative to
// the mean weight), so burst phases run proportionally hotter.
func pace(ctx context.Context, scn *Scenario, pop *population, c, sent int, baseRPS float64, start time.Time) {
	weight := 1.0
	if scn.Arrivals != nil {
		total := 0.0
		for _, a := range scn.Arrivals {
			total += a
		}
		mean := total / float64(len(scn.Arrivals))
		if mean > 0 {
			weight = scn.Arrivals[pop.phaseOf(c)] / mean
		}
	}
	rate := baseRPS * weight
	if rate <= 0 {
		return
	}
	ahead := time.Duration(float64(sent)/rate*float64(time.Second)) - time.Since(start)
	if ahead > time.Millisecond {
		select {
		case <-ctx.Done():
		case <-time.After(ahead):
		}
	}
}

// rzOf returns the scenario's randomizer (building the mechanism is cheap
// and deterministic for every supported mechanism).
func (s *Scenario) rzOf() ldp.Randomizer {
	m, err := BuildMechanism(s.Mechanism, s.Domain, s.Epsilon)
	if err != nil {
		panic(err) // Validate() already proved this builds
	}
	return m.Rz
}
