package ldp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
)

// EstimatorPool is the query-engine root: it caches built Estimators keyed by
// (mechanism identity, workload digest) and memoizes the optimizer's strategy
// output keyed by (workload digest, ε), so many tenants asking different
// questions of the same privatized population share every expensive artifact.
// With a cache directory configured, memoized strategies are persisted via
// the SaveStrategy wire format and verified by digest on load — a restart or
// a second process never re-pays Algorithm 1 for a workload it has already
// optimized.
//
// Both caches are singleflight: N goroutines resolving the same key
// concurrently trigger exactly one build (one optimizer run, one estimator
// construction); the rest wait and share the result. A pooled Estimator is
// the same immutable, concurrency-safe value NewEstimator returns, so answers
// through the pool are byte-identical to answers through fresh estimators.
//
// An EstimatorPool is safe for concurrent use.
type EstimatorPool struct {
	dir string // strategy cache directory; "" keeps the cache in memory only

	estimators flightCache[*Estimator]
	strategies flightCache[*Strategy]
	// named holds the one instance of each paper workload /query has resolved,
	// keyed by (name, domain), so the per-instance digest memo hits on every
	// later request. Bounded by the six families times the service's domain
	// (an invalid name fails its build and is not remembered).
	named flightCache[Workload]

	mu sync.Mutex
	// digests memoizes WorkloadDigest per workload instance: the digest hashes
	// every entry of W (O(p·n) time, ≈ 0.1 s for AllRange(256)), far too
	// expensive to recompute on every pool lookup of a long-lived workload value.
	digests map[Workload]string
	// idkeys likewise memoizes identityKey per aggregator instance —
	// MechanismInfoOf re-hashes the strategy matrix on every call. Both memos
	// hold at most maxInstanceMemo entries (see memoized).
	idkeys map[Aggregator]string

	stats poolCounters
}

// flightCache is a singleflight memo: the first resolver of a key runs the
// build, concurrent resolvers of the same key wait for it and share the
// result, and later resolvers hit the completed entry. A failed build is
// dropped so it cannot poison the key — a later caller (perhaps with a
// corrected workload) retries.
type flightCache[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// flightCall is one in-flight or completed build; waiters block on done.
type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// get resolves key, running build at most once however many goroutines ask
// concurrently. hit reports that another call's build (completed or still in
// flight) served this one.
func (c *flightCache[V]) get(key string, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.v, true, call.err
	}
	call := &flightCall[V]{done: make(chan struct{})}
	if c.calls == nil {
		c.calls = make(map[string]*flightCall[V])
	}
	c.calls[key] = call
	c.mu.Unlock()

	call.v, call.err = build()
	if call.err != nil {
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
	}
	close(call.done)
	return call.v, false, call.err
}

// poolCounters backs PoolStats with atomics so the hot path never takes the
// pool lock just to count.
type poolCounters struct {
	estimatorBuilds  atomic.Uint64
	estimatorHits    atomic.Uint64
	optimizerRuns    atomic.Uint64
	strategyMemHits  atomic.Uint64
	strategyDiskHits atomic.Uint64
}

// PoolStats is a point-in-time snapshot of the pool's cache behavior —
// what a cold-vs-warm assertion or a capacity dashboard reads.
type PoolStats struct {
	// EstimatorBuilds and EstimatorHits count Estimator resolutions that
	// built fresh vs. returned a cached instance.
	EstimatorBuilds uint64
	EstimatorHits   uint64
	// OptimizerRuns counts actual Algorithm 1/2 executions; StrategyMemHits
	// and StrategyDiskHits count resolutions served from the in-memory map
	// and the persisted cache directory instead.
	OptimizerRuns    uint64
	StrategyMemHits  uint64
	StrategyDiskHits uint64
	// SharedRowHits is retired and always 0: the batch row cache it counted
	// is gone. The field stays only because bench/ still reads it.
	SharedRowHits uint64
}

// PoolOption configures an EstimatorPool.
type PoolOption func(*EstimatorPool)

// WithPoolCacheDir persists memoized strategies to dir (created on first
// write) via the SaveStrategy wire format. Entries are named by workload
// digest, ε bits, and strategy digest; loads verify the strategy digest
// against the recomputed one, so a corrupt or tampered entry is ignored (and
// re-optimized) instead of trusted.
func WithPoolCacheDir(dir string) PoolOption {
	return func(p *EstimatorPool) { p.dir = dir }
}

// NewEstimatorPool returns an empty pool.
func NewEstimatorPool(opts ...PoolOption) *EstimatorPool {
	p := &EstimatorPool{
		digests: make(map[Workload]string),
		idkeys:  make(map[Aggregator]string),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// enableMetrics exposes the pool's estimator-cache counters as scrape-time
// counter families on reg — the same atomics Stats() snapshots, renamed into
// the metric namespace. Its one caller is NewCollectorService, whose /query
// path resolves estimators and nothing else, so only those two series can
// move there; the other PoolStats fields stay for library callers.
func (p *EstimatorPool) enableMetrics(reg *obs.Registry) {
	reg.CounterFunc("ldp_pool_estimator_builds_total", "Estimator resolutions that built a fresh instance.",
		func() float64 { return float64(p.stats.estimatorBuilds.Load()) })
	reg.CounterFunc("ldp_pool_estimator_hits_total", "Estimator resolutions served from the cache.",
		func() float64 { return float64(p.stats.estimatorHits.Load()) })
}

// Stats returns a snapshot of the pool's cache counters.
func (p *EstimatorPool) Stats() PoolStats {
	return PoolStats{
		EstimatorBuilds:  p.stats.estimatorBuilds.Load(),
		EstimatorHits:    p.stats.estimatorHits.Load(),
		OptimizerRuns:    p.stats.optimizerRuns.Load(),
		StrategyMemHits:  p.stats.strategyMemHits.Load(),
		StrategyDiskHits: p.stats.strategyDiskHits.Load(),
	}
}

// identityKey renders a mechanism identity canonically: every field that
// distinguishes two mechanisms, with ε by exact bits.
func identityKey(info MechanismInfo) string {
	return fmt.Sprintf("%s|%d|%016x|%s", info.Mechanism, info.Domain,
		math.Float64bits(info.Epsilon), info.Digest)
}

// maxInstanceMemo bounds each per-instance memo (digests, idkeys). The keys
// are caller-owned instances, so a caller building a fresh workload or
// aggregator per call would otherwise grow the maps — and pin every
// instance's cached n×n Gram — forever. A full memo is reset: a miss only
// recomputes a deterministic digest.
const maxInstanceMemo = 1 << 10

// memoized returns compute() memoized per instance k in memo, one of the
// pool's two per-instance maps. A miss computes outside the lock (two racers
// may both compute — the value is deterministic, so either result is
// correct). A key whose dynamic type is not comparable skips the memo rather
// than panic on insert; every built-in workload and aggregator is a pointer
// and memoizes fine.
func memoized[K comparable](p *EstimatorPool, memo map[K]string, k K, compute func() string) string {
	comparable := reflect.TypeOf(k).Comparable()
	if comparable {
		p.mu.Lock()
		v, ok := memo[k]
		p.mu.Unlock()
		if ok {
			return v
		}
	}
	v := compute()
	if comparable {
		p.mu.Lock()
		if len(memo) >= maxInstanceMemo {
			clear(memo)
		}
		memo[k] = v
		p.mu.Unlock()
	}
	return v
}

// workloadDigest is WorkloadDigest memoized per workload instance.
func (p *EstimatorPool) workloadDigest(w Workload) string {
	return memoized(p, p.digests, w, func() string { return WorkloadDigest(w) })
}

// namedWorkload is WorkloadByName resolved once per (name, domain): /query
// names its workload on every request, and a fresh instance each time would
// miss the per-instance digest memo (re-hashing all p·n entries of W) and park
// a new key in it forever.
func (p *EstimatorPool) namedWorkload(name string, n int) (Workload, error) {
	w, _, err := p.named.get(fmt.Sprintf("%s|%d", name, n), func() (Workload, error) {
		return WorkloadByName(name, n)
	})
	return w, err
}

// identityKeyOf is identityKey(MechanismInfoOf(agg)) memoized per aggregator
// instance: the mechanism info hashes the strategy matrix, which is stable
// for the life of an aggregator but expensive to recompute per pool lookup.
func (p *EstimatorPool) identityKeyOf(agg Aggregator) string {
	return memoized(p, p.idkeys, agg, func() string { return identityKey(MechanismInfoOf(agg)) })
}

// Estimator returns the pooled estimator for (agg, w), building it at most
// once per (mechanism identity, workload digest) key even under concurrent
// resolvers. The returned Estimator is shared: immutable and safe for
// concurrent use.
func (p *EstimatorPool) Estimator(agg Aggregator, w Workload) (*Estimator, error) {
	if agg == nil {
		return nil, fmt.Errorf("ldp: pool: nil aggregator")
	}
	key := p.identityKeyOf(agg) + "|" + p.workloadDigest(w)
	est, hit, err := p.estimators.get(key, func() (*Estimator, error) { return NewEstimator(agg, w) })
	switch {
	case err != nil:
	case hit:
		p.stats.estimatorHits.Add(1)
	default:
		p.stats.estimatorBuilds.Add(1)
	}
	return est, err
}

// Strategy returns the optimized strategy for (w, eps), running the
// optimizer at most once per (workload digest, ε) key: concurrent resolvers
// singleflight, repeat callers hit the in-memory memo, and with a cache
// directory a restart (or another process sharing the directory) loads the
// persisted wire entry — digest-verified — instead of re-running Algorithm 1.
// opts configure the optimizer exactly as Optimize does; they only apply
// when the optimizer actually runs, so callers sharing a pool should share
// optimizer settings too.
func (p *EstimatorPool) Strategy(ctx context.Context, w Workload, eps float64, opts ...OptimizeOption) (*Strategy, error) {
	wd := p.workloadDigest(w)
	key := fmt.Sprintf("%s|%016x", wd, math.Float64bits(eps))
	s, hit, err := p.strategies.get(key, func() (*Strategy, error) {
		return p.resolveStrategy(ctx, w, eps, wd, opts)
	})
	if hit && err == nil {
		p.stats.strategyMemHits.Add(1)
	}
	return s, err
}

// resolveStrategy is the singleflight leader's path: disk, then optimizer
// (persisting the result for the next process).
func (p *EstimatorPool) resolveStrategy(ctx context.Context, w Workload, eps float64, wd string, opts []OptimizeOption) (*Strategy, error) {
	if s := p.loadCachedStrategy(wd, eps, w.Domain()); s != nil {
		p.stats.strategyDiskHits.Add(1)
		return s, nil
	}
	// Cross-process singleflight: the in-memory map serializes goroutines of
	// one process, but two cold processes sharing the cache directory would
	// both reach here and run Algorithm 1 twice. A per-key flock in the cache
	// directory serializes them; the one that waited finds the winner's entry
	// on the re-check below and loads it instead of re-optimizing. A failed
	// lock (exotic filesystem, permissions) degrades to the duplicated work —
	// both results are identical and the persist is atomic, so the cache never
	// corrupts.
	if unlock, err := p.lockCacheEntry(wd, eps); err == nil {
		defer unlock()
		if s := p.loadCachedStrategy(wd, eps, w.Domain()); s != nil {
			p.stats.strategyDiskHits.Add(1)
			return s, nil
		}
	}
	s, err := OptimizeStrategy(ctx, w, eps, opts...)
	if err != nil {
		return nil, err
	}
	p.stats.optimizerRuns.Add(1)
	if err := p.storeCachedStrategy(wd, eps, s); err != nil {
		// The strategy itself is good; a failed persist only costs the next
		// process a re-optimization.
		return s, nil
	}
	return s, nil
}

// cacheEntryPrefix names every entry for one (workload digest, ε) pair; the
// full name appends the strategy digest the load verifies against.
func cacheEntryPrefix(wd string, eps float64) string {
	return fmt.Sprintf("%s-e%016x", wd, math.Float64bits(eps))
}

// lockCacheEntry takes the cross-process lock for one (workload digest, ε)
// key: a per-key ".lock" file in the cache directory under a blocking
// exclusive flock. Keys lock independently, so two processes optimizing
// different workloads never serialize each other. Without a cache directory
// there is nothing to coordinate and the lock is a no-op.
func (p *EstimatorPool) lockCacheEntry(wd string, eps float64) (func(), error) {
	if p.dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	return flockExclusive(filepath.Join(p.dir, cacheEntryPrefix(wd, eps)+".lock"))
}

// loadCachedStrategy scans the cache directory for an entry matching
// (workload digest, ε) and returns it only when it survives every check:
// LoadStrategy's full wire validation, the ε bits, the workload's domain, and
// the strategy digest recomputed over the loaded matrix matching the digest
// in the filename. Anything less is treated as a miss — a corrupt entry costs
// a re-optimization, never a wrong strategy.
func (p *EstimatorPool) loadCachedStrategy(wd string, eps float64, domain int) *Strategy {
	if p.dir == "" {
		return nil
	}
	prefix := cacheEntryPrefix(wd, eps)
	matches, err := filepath.Glob(filepath.Join(p.dir, prefix+"-*.strategy"))
	if err != nil || len(matches) == 0 {
		return nil
	}
	for _, path := range matches {
		name := filepath.Base(path)
		wantDigest := strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), ".strategy")
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		s, err := LoadStrategy(f)
		f.Close()
		if err != nil {
			continue
		}
		if s.Domain() != domain || math.Float64bits(s.Eps) != math.Float64bits(eps) {
			continue
		}
		if StrategyDigest(s) != wantDigest {
			continue
		}
		return s
	}
	return nil
}

// storeCachedStrategy persists a freshly optimized strategy with an atomic,
// fsynced replace, named so a digest-verified load can find and check it.
func (p *EstimatorPool) storeCachedStrategy(wd string, eps float64, s *Strategy) error {
	if p.dir == "" {
		return nil
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s.strategy", cacheEntryPrefix(wd, eps), StrategyDigest(s))
	return durable.ReplaceFile(filepath.Join(p.dir, name), func(f *os.File) error {
		return SaveStrategy(f, s)
	})
}

// BatchAnswer is one workload's result in an AnswerBatch: the workload, its
// canonical digest (the name the query wire protocol uses), its unbiased
// answers, and — when requested — the closed-form per-query variances.
type BatchAnswer struct {
	Workload Workload
	Digest   string
	Answers  []float64
	Variance []float64
}

// batchConfig is AnswerBatch's option state.
type batchConfig struct {
	variance bool
}

// BatchOption configures AnswerBatch.
type BatchOption func(*batchConfig)

// WithBatchVariance makes AnswerBatch fill each result's Variance slice with
// the closed-form per-query variances Estimator.Variance returns.
func WithBatchVariance() BatchOption {
	return func(c *batchConfig) { c.variance = true }
}

// AnswerBatch answers heterogeneous workloads over one snapshot, one
// workload at a time through the pool's estimator for it: each result's
// Answers are that estimator's Answers. With WithBatchVariance they are the
// Answer and Variance columns of its AnswerStream at level 0 instead — the
// same values Answers and Variance return, read from one x̂. Results are
// returned in input order.
func (p *EstimatorPool) AnswerBatch(agg Aggregator, s Snapshot, workloads []Workload, opts ...BatchOption) ([]BatchAnswer, error) {
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	if len(workloads) == 0 {
		return nil, nil
	}
	out := make([]BatchAnswer, len(workloads))
	for i, w := range workloads {
		est, err := p.Estimator(agg, w)
		switch {
		case err == nil && cfg.variance:
			a, v := make([]float64, 0, w.Queries()), make([]float64, 0, w.Queries())
			err = est.AnswerStream(s, 0, func(q QueryAnswer) bool {
				a, v = append(a, q.Answer), append(v, q.Variance)
				return true
			})
			out[i].Answers, out[i].Variance = a, v
		case err == nil:
			out[i].Answers, err = est.Answers(s)
		}
		if err != nil {
			return nil, fmt.Errorf("ldp: batch workload %d (%s): %w", i, w.Name(), err)
		}
		out[i].Workload, out[i].Digest = w, p.workloadDigest(w)
	}
	return out, nil
}
