package ldp

import (
	"fmt"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Collector is the goroutine-safe aggregation front-end for deployments where
// many handler goroutines ingest client reports concurrently. Instead of
// serializing every arrival behind one mutex, the accumulator is sharded:
// each shard owns a private, cache-line-padded copy of the mechanism's
// aggregation state behind its own lock, ingestion spreads across shards, and
// the read path merges shards into one consistent snapshot (the protocol
// accumulator contract makes the merge a plain element-wise sum). Throughput
// therefore scales with cores; see BenchmarkCollectorIngest.
//
// Two ingestion paths are offered: Ingest/IngestBatch pick a shard at random
// through math/rand/v2's per-goroutine generator (no shared state touched, so
// unrelated goroutines never bounce a cache line choosing shards), and Handle
// pins an ingesting goroutine to one shard so even the shard lock stays
// core-local.
//
// Reads merge: every snapshot locks the shards, sums them into the slice it
// returns, and numbers the state it saw. Because every successful ingest
// advances exactly one per-shard counter, "no count changed" proves "no state
// changed", which is all the epoch needs.
type Collector struct {
	agg    Aggregator
	info   MechanismInfo
	shards []collectorShard
	mask   uint64
	pinned atomic.Uint64 // round-robin cursor for Handle assignment

	// dur is the optional write-ahead-log state (WithDurability); nil for a
	// purely in-memory collector. When set, every ingest appends its batch to
	// the WAL before absorbing, so an acknowledged batch survives a crash.
	dur *durableState

	// cache is the last state any reader observed, by number: cache.count is
	// the total report count of that state and cache.epoch advances exactly
	// when a reader (snapshot or countEpoch) observes a count different from
	// it — the monotonic sequence Snapshot.Epoch carries.
	cache struct {
		mu    sync.Mutex
		count int64
		epoch uint64
	}

	// stats are lifetime tallies the serving wrapper exposes as scrape-time
	// counters (enableMetrics); plain atomics so the ingest path never takes
	// a metrics lock.
	stats struct {
		ingestBatches atomic.Int64
		ingestReports atomic.Int64
	}
}

// collectorShard is one lock-protected slice of the aggregation state. The
// trailing pad keeps the shards' mutexes and counts on distinct cache lines
// (the accumulator slices are separate heap allocations already), so two
// goroutines on different shards never write-share a line.
//
// count is atomic so Count and countEpoch are lock-free; writers still only
// advance it inside the shard lock, after the absorb lands, which makes the
// increment the linearization point of an ingest.
type collectorShard struct {
	mu    sync.Mutex
	count atomic.Int64
	acc   []float64
	_     [88]byte // sizeof(mutex+count+slice) = 40; pad to 128
}

// NewCollector prepares a concurrent collector for the given mechanism
// aggregator and workload. shards is rounded up to a power of two; shards ≤ 0
// picks 2×GOMAXPROCS, enough that ingesting goroutines rarely collide.
// Options extend the collector — WithDurability adds a write-ahead log and
// checkpointed crash recovery (prior state in the directory is restored
// before the collector is returned).
func NewCollector(agg Aggregator, w Workload, shards int, opts ...CollectorOption) (*Collector, error) {
	info, err := checkedInfo(agg, w)
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = 2 * runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Collector{agg: agg, info: info, shards: make([]collectorShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].acc = make([]float64, agg.StateLen())
	}
	var cfg collectorConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durDir != "" {
		if err := c.openDurable(cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Shards returns the number of shards the accumulator is split across.
func (c *Collector) Shards() int { return len(c.shards) }

// Ingest records one client report; safe for concurrent use from any
// goroutine. Long-lived ingestion goroutines should prefer a Handle, which
// keeps even the shard lock core-local.
func (c *Collector) Ingest(r Report) error {
	return c.ingestInto(&c.shards[randv2.Uint64()&c.mask], r)
}

// IngestBatch records a batch of reports atomically under one shard lock: the
// whole batch is validated before any state changes, so a malformed element
// leaves the collector exactly as it was (and the snapshot never exposes a
// half-applied batch).
func (c *Collector) IngestBatch(reports []Report) error {
	return c.ingestBatchInto(&c.shards[randv2.Uint64()&c.mask], reports, "")
}

// IngestBatchKeyed is IngestBatch with the transport's idempotency key
// recorded alongside the batch in the write-ahead log (when durability is
// configured), so a client retry arriving after a crash-restart is recognized
// and absorbed exactly once. Transport bindings call it; other callers can
// pass "" or use IngestBatch.
func (c *Collector) IngestBatchKeyed(reports []Report, key string) error {
	return c.ingestBatchInto(&c.shards[randv2.Uint64()&c.mask], reports, key)
}

func (c *Collector) ingestInto(sh *collectorShard, r Report) error {
	if c.dur != nil {
		if err := c.agg.Check(r); err != nil {
			return fmt.Errorf("ldp: %w", err)
		}
		if err := c.durableAbsorb(sh, []Report{r}, ""); err != nil {
			return err
		}
		c.stats.ingestReports.Add(1)
		return nil
	}
	sh.mu.Lock()
	err := c.agg.Absorb(sh.acc, r)
	if err == nil {
		sh.count.Add(1)
	}
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	c.stats.ingestReports.Add(1)
	return nil
}

func (c *Collector) ingestBatchInto(sh *collectorShard, reports []Report, key string) error {
	for i, r := range reports {
		if err := c.agg.Check(r); err != nil {
			return fmt.Errorf("ldp: batch element %d: %w", i, err)
		}
	}
	if c.dur != nil {
		if err := c.durableAbsorb(sh, reports, key); err != nil {
			return err
		}
	} else {
		sh.mu.Lock()
		c.absorbValidatedLocked(sh, reports)
		sh.mu.Unlock()
	}
	c.stats.ingestBatches.Add(1)
	c.stats.ingestReports.Add(int64(len(reports)))
	return nil
}

// absorbValidatedLocked folds an already-Checked batch into the shard and
// publishes it with one counter add. Caller holds sh.mu.
func (c *Collector) absorbValidatedLocked(sh *collectorShard, reports []Report) {
	for i, r := range reports {
		// Check passed, so Absorb cannot fail (the Aggregator contract). If
		// an aggregator ever violates it, the batch is already partially
		// absorbed and cannot be rolled back — publish the applied prefix
		// (keeping the snapshot epoch's "count moved iff state moved"
		// invariant intact) and panic: silently committing a half-applied
		// batch would break the all-or-nothing promise every transport
		// client retries against, turning one buggy aggregator into
		// permanent double counts.
		if err := c.agg.Absorb(sh.acc, r); err != nil {
			sh.count.Add(int64(i))
			panic(fmt.Sprintf("ldp: aggregator %T violated the Check/Absorb contract on batch element %d: %v", c.agg, i, err))
		}
	}
	// One atomic add for the whole batch: the counter is the publication
	// point, so readers see the batch all at once.
	sh.count.Add(int64(len(reports)))
}

// Handle is an ingestion endpoint pinned to one shard: its hot path takes an
// uncontended lock and touches no cache line shared with other shards'
// handles. Create one per long-lived ingestion goroutine. A Handle is itself
// safe for concurrent use — concurrent users merely contend on its shard.
type Handle struct {
	c  *Collector
	sh *collectorShard
}

// Handle returns an ingestion endpoint pinned to the next shard round-robin.
// With at least as many shards as ingestion goroutines (the default), every
// goroutine gets a shard of its own.
func (c *Collector) Handle() *Handle {
	return &Handle{c: c, sh: &c.shards[c.pinned.Add(1)&c.mask]}
}

// Ingest records one client report on the handle's shard.
func (h *Handle) Ingest(r Report) error {
	return h.c.ingestInto(h.sh, r)
}

// IngestBatch records a batch atomically on the handle's shard, with the same
// all-or-nothing validation as Collector.IngestBatch.
func (h *Handle) IngestBatch(reports []Report) error {
	return h.c.ingestBatchInto(h.sh, reports, "")
}

// totalCount sums the per-shard counters lock-free. An ingest publishes
// itself by advancing its shard's counter (inside the shard lock, after the
// absorb), so the sum only moves when completed ingests land.
func (c *Collector) totalCount() int64 {
	var count int64
	for i := range c.shards {
		count += c.shards[i].count.Load()
	}
	return count
}

// enableMetrics registers the collector's families on reg, all read at
// scrape time from the collector's own atomics — the ingest path pays
// nothing it wasn't already paying.
func (c *Collector) enableMetrics(reg *obs.Registry) {
	reg.CounterFunc("ldp_collector_ingest_batches_total",
		"Report batches absorbed since startup.",
		func() float64 { return float64(c.stats.ingestBatches.Load()) })
	reg.CounterFunc("ldp_collector_ingest_reports_total",
		"Individual reports absorbed since startup (batched and unary).",
		func() float64 { return float64(c.stats.ingestReports.Load()) })
	reg.GaugeFunc("ldp_collector_reports",
		"Reports currently aggregated, recovery included.",
		func() float64 { return float64(c.totalCount()) })
	reg.GaugeFunc("ldp_collector_epoch",
		"Current snapshot epoch — advances exactly when the merged state changes.",
		func() float64 { _, epoch := c.countEpoch(); return float64(epoch) })
}

// snapshot returns the merged accumulator (caller-owned: it is allocated
// here and kept nowhere), the report count it reflects, and the snapshot
// epoch — a linearizable point-in-time view: no concurrent Ingest is
// half-visible. Every shard is locked (ascending order, so concurrent
// snapshots cannot deadlock) while the merge runs.
func (c *Collector) snapshot() (acc []float64, count float64, epoch uint64) {
	c.cache.mu.Lock()
	defer c.cache.mu.Unlock()
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	acc = make([]float64, c.agg.StateLen())
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		for j, v := range sh.acc {
			acc[j] += v
		}
		total += sh.count.Load()
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	return acc, float64(total), c.observeLocked(total)
}

// observeLocked numbers the state holding total reports: the epoch advances
// only when that state is one no reader has observed yet — a snapshot at a
// count countEpoch already numbered keeps that epoch (and vice versa), so
// /healthz and /snapshot number the same states identically. Caller holds
// cache.mu.
func (c *Collector) observeLocked(total int64) uint64 {
	if c.cache.epoch == 0 || total != c.cache.count {
		c.cache.count = total
		c.cache.epoch++
	}
	return c.cache.epoch
}

// countEpoch returns a consistent (count, epoch) pair — what /healthz
// serves — without paying for a merge: a count no reader has seen is itself
// the observation of a new state, so the epoch advances. Every ingest moves a
// counter, so "count unchanged" still proves "state unchanged". Cost per
// poll: the lock-free counter sum plus the cache mutex — no shard lock is
// taken.
func (c *Collector) countEpoch() (count float64, epoch uint64) {
	c.cache.mu.Lock()
	defer c.cache.mu.Unlock()
	total := c.totalCount()
	return float64(total), c.observeLocked(total)
}

// Snap returns an immutable point-in-time Snapshot of the collector: merged
// accumulator, report count, mechanism identity, and the monotonic snapshot
// epoch. It is the one read handle every estimator consumes — and the value
// a transport binding serves to remote readers and ldpfed merges across
// shards.
func (c *Collector) Snap() Snapshot {
	acc, count, epoch := c.snapshot()
	return Snapshot{state: acc, count: count, epoch: epoch, info: c.info}
}

// Count returns the number of reports collected so far. It only sums the
// per-shard atomic counters — no lock is taken and no accumulator merge is
// paid, so Count can be polled at any rate.
func (c *Collector) Count() float64 {
	return float64(c.totalCount())
}
