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
// Ingest, IngestBatch and IngestBatchKeyed pick a shard at random through
// math/rand/v2's per-goroutine generator (no shared state touched, so
// unrelated goroutines never bounce a cache line choosing shards). All three,
// and the write-ahead log's replay, share one check loop and one absorb loop.
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

// maxShards bounds NewCollector's shard count. Each shard is a full copy of
// the accumulator, and 2×GOMAXPROCS shards already keep ingesting goroutines
// apart on any machine Go runs on.
const maxShards = 1 << 12

// NewCollector prepares a concurrent collector for the given mechanism
// aggregator and workload. shards is rounded up to a power of two; shards ≤ 0
// picks 2×GOMAXPROCS (at most 4096), enough that ingesting goroutines rarely
// collide, and shards > 4096 is an error.
// Options extend the collector — WithDurability adds a write-ahead log and
// checkpointed crash recovery (prior state in the directory is restored
// before the collector is returned).
func NewCollector(agg Aggregator, w Workload, shards int, opts ...CollectorOption) (*Collector, error) {
	info, err := checkedInfo(agg, w)
	if err != nil {
		return nil, err
	}
	if shards > maxShards {
		return nil, fmt.Errorf("ldp: %d collector shards, the limit is %d", shards, maxShards)
	}
	if shards <= 0 {
		shards = min(2*runtime.GOMAXPROCS(0), maxShards)
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
// goroutine. It is a one-report IngestBatch that counts no batch.
func (c *Collector) Ingest(r Report) error {
	// Declared, then assigned: the composite literal [1]Report{r} copies r
	// through a second stack temporary, which BenchmarkCollectorIngest sees.
	var one [1]Report
	one[0] = r
	if err := c.ingestInto(c.pick(), one[:], ""); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	c.stats.ingestReports.Add(1)
	return nil
}

// IngestBatch records a batch of reports atomically under one shard lock: the
// whole batch is validated before any state changes, so a malformed element
// leaves the collector exactly as it was (and the snapshot never exposes a
// half-applied batch).
func (c *Collector) IngestBatch(reports []Report) error {
	return c.IngestBatchKeyed(reports, "")
}

// IngestBatchKeyed is IngestBatch with the transport's idempotency key
// recorded alongside the batch in the write-ahead log (when durability is
// configured), so a client retry arriving after a crash-restart is recognized
// and absorbed exactly once. Transport bindings call it; other callers can
// pass "" or use IngestBatch.
func (c *Collector) IngestBatchKeyed(reports []Report, key string) error {
	if err := c.ingestInto(c.pick(), reports, key); err != nil {
		return fmt.Errorf("ldp: %w", err)
	}
	c.stats.ingestBatches.Add(1)
	c.stats.ingestReports.Add(int64(len(reports)))
	return nil
}

// pick returns a shard chosen at random.
func (c *Collector) pick() *collectorShard { return &c.shards[randv2.Uint64()&c.mask] }

// ingestInto is live ingest's one path: it checks every report, logs the
// batch under key when the collector is durable, and folds it into sh. A
// lone report bound for memory skips the separate check: Absorb validates it
// too, and refusing it leaves the shard as it was. Errors carry no "ldp:"
// prefix; the caller supplies the context.
func (c *Collector) ingestInto(sh *collectorShard, reports []Report, key string) error {
	lone := len(reports) == 1 && c.dur == nil
	if !lone {
		if err := c.check(reports); err != nil {
			return err
		}
	}
	if c.dur != nil {
		return c.durableAbsorb(sh, reports, key)
	}
	sh.mu.Lock()
	i, err := c.absorbLocked(sh, reports)
	sh.mu.Unlock()
	if err != nil && !lone {
		c.contractBroken(i, err)
	}
	return err
}

// check validates every report of a batch before any state changes, naming
// the first one refused. It is the collector's one call of Aggregator.Check.
func (c *Collector) check(reports []Report) error {
	for i, r := range reports {
		if err := c.agg.Check(r); err != nil {
			if len(reports) == 1 {
				return err
			}
			return fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	return nil
}

// absorbLocked folds reports into sh and publishes them with one counter
// add, so readers see a batch all at once. It is the collector's one call of
// Aggregator.Absorb. If Absorb refuses report i, the i reports before it
// stay absorbed and counted (the snapshot epoch's "count moved iff state
// moved" holds) and absorbLocked returns i and the refusal. Caller holds
// sh.mu, or is the only goroutine that can reach sh.
func (c *Collector) absorbLocked(sh *collectorShard, reports []Report) (int, error) {
	for i, r := range reports {
		if err := c.agg.Absorb(sh.acc, r); err != nil {
			sh.count.Add(int64(i))
			return i, err
		}
	}
	sh.count.Add(int64(len(reports)))
	return len(reports), nil
}

// contractBroken panics: Absorb refused batch element i after Check passed
// it, which the Aggregator contract rules out. The elements before i are
// absorbed and cannot be rolled back, and silently committing a half-applied
// batch would break the all-or-nothing promise every transport client
// retries against, turning one buggy aggregator into permanent double counts.
func (c *Collector) contractBroken(i int, err error) {
	panic(fmt.Sprintf("ldp: aggregator %T violated the Check/Absorb contract on batch element %d: %v", c.agg, i, err))
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
// a transport binding serves to remote readers and `ldpquery -servers`
// merges across shards.
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
