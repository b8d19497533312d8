package ldp

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transport"
)

// DefaultCheckpointEvery is the report interval between automatic checkpoints
// for a durable collector. Each checkpoint rotates the write-ahead log, so
// the interval bounds both recovery time (at most this many reports replay)
// and disk growth (pruned segments are deleted).
const DefaultCheckpointEvery = 1 << 16

// CollectorOption configures a Collector at construction.
type CollectorOption func(*collectorConfig)

type collectorConfig struct {
	durDir      string
	fsync       bool
	ckptEvery   int64
	historyKeep int
	gzip        bool
}

// WithDurability gives the collector a write-ahead log and checkpointed crash
// recovery rooted at dir (created if needed): every ingested batch is
// appended — group-commit buffered — to a CRC-checked WAL before the ingest
// is acknowledged, the merged accumulator is checkpointed periodically, and
// NewCollector restores dir's prior state (accumulator, report count,
// snapshot epoch, and the idempotency keys of logged batches) before
// returning. An acknowledged batch therefore survives a process crash: on
// restart the collector's snapshot is bit-identical to one that absorbed
// exactly the acknowledged batches, with any torn trailing record — the
// unacknowledged remains of the crash — detected and dropped.
//
// One collector owns a directory at a time; call Close to release it.
func WithDurability(dir string, opts ...DurabilityOption) CollectorOption {
	return func(cfg *collectorConfig) {
		cfg.durDir = dir
		cfg.ckptEvery = DefaultCheckpointEvery
		for _, o := range opts {
			o(cfg)
		}
	}
}

// DurabilityOption tunes WithDurability.
type DurabilityOption func(*collectorConfig)

// CheckpointEvery sets how many ingested reports accumulate between automatic
// checkpoints (default DefaultCheckpointEvery). n ≤ 0 disables automatic
// checkpoints; the WAL then grows until Checkpoint is called explicitly.
func CheckpointEvery(n int) DurabilityOption {
	return func(cfg *collectorConfig) { cfg.ckptEvery = int64(n) }
}

// FsyncEachCommit makes every WAL group commit fsync before the ingest is
// acknowledged, extending the crash-consistency guarantee from process
// crashes to power failures at the cost of ingest latency. Off (the default)
// records are written to the OS before acknowledgment but not synced.
func FsyncEachCommit(on bool) DurabilityOption {
	return func(cfg *collectorConfig) { cfg.fsync = on }
}

// HistoryKeep sets the retention ladder's full-resolution window: the n
// newest checkpoints are kept intact and older ones are coarsened
// geometrically (every 2nd, then every 4th, …), so SnapAt can serve any
// retained epoch without replay while disk stays logarithmic in history
// length. Values below 2 mean the default window.
func HistoryKeep(n int) DurabilityOption {
	return func(cfg *collectorConfig) { cfg.historyKeep = n }
}

// GzipHistory compresses checkpoint payloads and closed retained WAL
// segments — worthwhile for the unary mechanisms, whose accumulators are long
// runs of small integers. The active segment is never compressed, and a
// directory written with either setting opens under the other.
func GzipHistory(on bool) DurabilityOption {
	return func(cfg *collectorConfig) { cfg.gzip = on }
}

// DurabilityStatus is a durable collector's recovery and WAL-lag status — the
// same structure /healthz serves for a durable ldpserve shard.
type DurabilityStatus = transport.DurabilityHealth

// durableState is the per-collector durability runtime: the store, the
// checkpoint trigger, and the barrier that makes checkpoints exact.
type durableState struct {
	store     *durable.Store
	ckptEvery int64
	fsync     bool

	// gate orders ingest against checkpoint cuts: an ingest holds the read
	// side across WAL-append + absorb, so under the write side the WAL and
	// the in-memory accumulator agree exactly — the checkpoint invariant.
	gate sync.RWMutex
	// ckptMu makes checkpoints single-flight; an ingest that finds it taken
	// skips (the running checkpoint covers its trigger).
	ckptMu sync.Mutex
	// sinceCkpt counts reports absorbed since the last checkpoint cut.
	sinceCkpt atomic.Int64

	// Recovery facts, fixed at open. recovery is the store's raw recovery
	// record, kept whole: status reads it and metrics arming pins it as gauges.
	recovered        bool
	recoveredReports int64
	recovery         durable.Recovery

	// statusMu guards lastErr (background checkpoint failures).
	statusMu sync.Mutex
	lastErr  string
}

// openDurable attaches a durable store to a freshly built collector: it
// restores the directory's checkpoint and WAL tail into shard 0 (merging is
// element-wise, so which shard holds recovered state is immaterial) and seeds
// the snapshot epoch past anything the previous process can have served. The
// idempotency keys the log proves absorbed stay in the store's own table.
func (c *Collector) openDurable(cfg collectorConfig) error {
	sh := &c.shards[0]
	d := &durableState{ckptEvery: cfg.ckptEvery, fsync: cfg.fsync}
	var ckptEpoch uint64
	restore := func(snap transport.Snapshot) error {
		if len(snap.State) != c.agg.StateLen() {
			return fmt.Errorf("checkpoint has %d state entries, mechanism expects %d", len(snap.State), c.agg.StateLen())
		}
		if err := infoMismatch(c.info, snap.Info); err != nil {
			return fmt.Errorf("checkpoint was written under a different mechanism configuration: %w", err)
		}
		for i, v := range snap.State {
			sh.acc[i] += v
		}
		sh.count.Add(int64(snap.Count))
		ckptEpoch = snap.Epoch
		d.recoveredReports += int64(snap.Count)
		return nil
	}
	replay := func(rec durable.Record) error {
		// Live ingest's check and absorb loops, without the log: the record
		// is already in it. A report Check passes and Absorb refuses fails
		// recovery instead of panicking, and NewCollector drops the
		// half-restored collector.
		if err := c.check(rec.Reports); err != nil {
			return err
		}
		if i, err := c.absorbLocked(sh, rec.Reports); err != nil {
			return fmt.Errorf("aggregator %T violated the Check/Absorb contract on report %d: %w", c.agg, i, err)
		}
		d.recoveredReports += int64(len(rec.Reports))
		return nil
	}
	store, rec, err := durable.Open(cfg.durDir, durable.Options{
		Digest:      walDigest(c.info),
		Fsync:       cfg.fsync,
		Restore:     restore,
		Replay:      replay,
		HistoryKeep: cfg.historyKeep,
		Gzip:        cfg.gzip,
	})
	if err != nil {
		return fmt.Errorf("ldp: open durable store: %w", err)
	}
	d.store = store
	d.recovery = rec
	d.recovered = rec.HasCheckpoint || rec.ReplayedRecords > 0
	d.sinceCkpt.Store(rec.ReplayedReports)
	if d.recovered {
		// Seed the snapshot epoch strictly past anything the previous process
		// can have served: each served epoch needs an observed count change,
		// and counts changed at most once per checkpoint plus once per
		// replayed record. Remote readers therefore never see the epoch move
		// backwards across a clean recovery (see EpochRegressionError for the
		// lossy-restart symptom this preserves).
		c.cache.count = c.totalCount()
		c.cache.epoch = ckptEpoch + uint64(rec.ReplayedRecords) + 1
	}
	c.dur = d
	return nil
}

// walDigest is the mechanism fingerprint stamped into (and checked against)
// every WAL record. Strategy mechanisms use the StrategyDigest; oracles —
// which carry no digest because (name, domain, ε) fully determines them —
// get exactly that triple, so a WAL written under OUE can never replay into
// RAPPOR, nor an ε=1 log into an ε=2 collector, even before the first
// checkpoint exists to carry the full identity. Always non-empty, so the
// record-level check is never silently skipped.
func walDigest(info MechanismInfo) string {
	if info.Digest != "" {
		return info.Digest
	}
	return fmt.Sprintf("%s|n=%d|eps=%g", info.Mechanism, info.Domain, info.Epsilon)
}

// durableAbsorb is the durable ingest path: the already-validated batch is
// appended to the WAL — group-committed with concurrent ingests — and only
// then absorbed and acknowledged. The WAL append happening first is the
// durability guarantee; the absorb completing before the gate is released is
// the checkpoint-exactness guarantee.
func (c *Collector) durableAbsorb(sh *collectorShard, reports []Report, key string) error {
	if len(reports) == 0 {
		return nil
	}
	d := c.dur
	d.gate.RLock()
	if err := d.store.Append(reports, key); err != nil {
		d.gate.RUnlock()
		// The batch was valid; the log could not take it (ENOSPC, EIO, a
		// closed store). That is the server's weather, not the client's
		// fault: a transport front answers a retryable 503 and keeps the
		// idempotency key unclaimed instead of caching a 400.
		return statusErrorf(http.StatusServiceUnavailable, "write-ahead log: %v", err)
	}
	sh.mu.Lock()
	i, err := c.absorbLocked(sh, reports)
	sh.mu.Unlock()
	d.gate.RUnlock()
	if err != nil {
		c.contractBroken(i, err)
	}
	if n := d.sinceCkpt.Add(int64(len(reports))); d.ckptEvery > 0 && n >= d.ckptEvery {
		c.checkpointIfDue()
	}
	return nil
}

// checkpointIfDue runs one checkpoint unless another is already in flight or
// the trigger has been covered in the meantime. Failures don't fail ingest —
// the WAL alone still recovers — but are retained for /healthz.
func (c *Collector) checkpointIfDue() {
	d := c.dur
	if !d.ckptMu.TryLock() {
		return
	}
	defer d.ckptMu.Unlock()
	if d.sinceCkpt.Load() < d.ckptEvery {
		return
	}
	err := c.checkpointLocked()
	d.statusMu.Lock()
	if err != nil {
		d.lastErr = err.Error()
	} else {
		d.lastErr = ""
	}
	d.statusMu.Unlock()
}

// Checkpoint forces a checkpoint now: the WAL rotates to a fresh segment and
// the current merged accumulator is pinned, so a subsequent restart replays
// nothing older. Useful before a planned shutdown.
func (c *Collector) Checkpoint() error {
	if c.dur == nil {
		return errors.New("ldp: collector has no durability configured")
	}
	c.dur.ckptMu.Lock()
	defer c.dur.ckptMu.Unlock()
	return c.checkpointLocked()
}

// checkpointLocked cuts and writes one checkpoint. Caller holds d.ckptMu.
// The gate's write side is held only across the cheap part — snapshotting the
// accumulator and rotating the WAL — so ingest stalls for microseconds; the
// checkpoint file itself is written with ingest flowing into the new segment.
func (c *Collector) checkpointLocked() error {
	d := c.dur
	d.gate.Lock()
	snap := c.Snap()
	err := d.store.Rotate()
	d.sinceCkpt.Store(0)
	d.gate.Unlock()
	if err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	tsnap := transport.Snapshot{State: snap.state, Count: snap.count, Epoch: snap.epoch, Info: snap.info}
	if err := d.store.WriteCheckpoint(tsnap); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	return nil
}

// SnapAt serves the snapshot the epoch history retains for exactly the given
// epoch — bit-identical in state, count, and identity to the one Snap served
// when that epoch was checkpointed — without any WAL replay. The epoch must
// match a retained checkpoint exactly; an epoch the retention ladder has
// coarsened away (or that never had a checkpoint) returns
// *transport.EpochNotRetainedError carrying the retained range. Requires
// WithDurability.
func (c *Collector) SnapAt(epoch uint64) (Snapshot, error) { return c.snapAt(epoch, false) }

// SnapAtNearest is SnapAt with floor semantics: the newest retained epoch at
// or below the requested one is served. Use it to window against a timeline
// whose exact epochs are not retained (fleet members checkpoint on their own
// schedules); the returned snapshot's own epoch says what was actually
// served.
func (c *Collector) SnapAtNearest(epoch uint64) (Snapshot, error) { return c.snapAt(epoch, true) }

func (c *Collector) snapAt(epoch uint64, nearest bool) (Snapshot, error) {
	if c.dur == nil {
		return Snapshot{}, errors.New("ldp: collector has no durability configured, so no epoch history is retained")
	}
	ts, err := c.dur.store.SnapshotAt(epoch, nearest)
	if err != nil {
		return Snapshot{}, fmt.Errorf("ldp: %w", err)
	}
	if len(ts.State) != c.agg.StateLen() {
		return Snapshot{}, fmt.Errorf("ldp: retained checkpoint has %d state entries, mechanism expects %d", len(ts.State), c.agg.StateLen())
	}
	if err := infoMismatch(c.info, ts.Info); err != nil {
		return Snapshot{}, fmt.Errorf("ldp: retained checkpoint was written under a different mechanism configuration: %w", err)
	}
	return Snapshot{state: ts.State, count: ts.Count, epoch: ts.Epoch, info: mergeInfo(ts.Info, c.info)}, nil
}

// historySnapshotAt is the transport-facing SnapAt: same semantics, transport
// types, and an in-memory collector reads as "nothing retained" so the HTTP
// layer answers a definitive 404 rather than a server error.
func (c *Collector) historySnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	if c.dur == nil {
		return transport.Snapshot{}, &transport.EpochNotRetainedError{Requested: epoch}
	}
	return c.dur.store.SnapshotAt(epoch, nearest)
}

// RetainedEpochs lists the epochs SnapAt can serve, ascending — the newest
// few at full checkpoint resolution, older ones geometrically coarsened. Nil
// without durability.
func (c *Collector) RetainedEpochs() []uint64 {
	if c.dur == nil {
		return nil
	}
	return c.dur.store.RetainedEpochs()
}

// Durability reports the collector's durable-ingest status; ok is false for
// an in-memory collector.
func (c *Collector) Durability() (status DurabilityStatus, ok bool) {
	d := c.dur
	if d == nil {
		return DurabilityStatus{}, false
	}
	d.statusMu.Lock()
	lastErr := d.lastErr
	d.statusMu.Unlock()
	return DurabilityStatus{
		Recovered:        d.recovered,
		RecoveredReports: d.recoveredReports,
		ReplayedRecords:  d.recovery.ReplayedRecords,
		DroppedTailBytes: d.recovery.DroppedTailBytes,
		CheckpointSeq:    d.store.CheckpointSeq(),
		WALRecordLag:     d.store.RecordLag(),
		WALByteLag:       d.store.ByteLag(),
		Fsync:            d.fsync,
		LastError:        lastErr,
	}, true
}

// armDurabilityMetrics registers the WAL and checkpoint families on reg and
// starts feeding them: append/flush latency, group-commit sizes, checkpoint
// durations, live lag gauges, and the last recovery's facts. No-op for an
// in-memory collector.
func (c *Collector) armDurabilityMetrics(reg *obs.Registry) {
	if c.dur == nil {
		return
	}
	c.dur.store.SetMetrics(reg, c.dur.recovery)
}

// recoveredIdempotencyKeys returns the idempotency keys the log proves
// absorbed, oldest first, with the report counts absorbed under them — what
// NewCollectorService seeds the transport's idempotency cache with. It is the
// store's table at the moment the service is built: right after NewCollector
// (where every cmd/ and test builds it) that is the recovered table, and a key
// ingested in between is one the log also proves absorbed. The table spans
// checkpoints, so a keyed request whose records straddle a cut seeds its FULL
// absorbed count and the retrying client trims exactly what landed.
func (c *Collector) recoveredIdempotencyKeys() []transport.KeyCount {
	if c.dur == nil {
		return nil
	}
	return c.dur.store.Keys()
}

// Sync forces any group-commit-buffered WAL records to disk regardless of
// the fsync mode. No-op without durability.
func (c *Collector) Sync() error {
	if c.dur == nil {
		return nil
	}
	if err := c.dur.store.Sync(); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	return nil
}

// Close flushes and closes the durable store, releasing the data directory.
// The collector must not ingest afterwards. No-op without durability.
func (c *Collector) Close() error {
	if c.dur == nil {
		return nil
	}
	if err := c.dur.store.Close(); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	return nil
}
