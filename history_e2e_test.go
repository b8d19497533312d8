// Acceptance tests for the epoch-history subsystem: time-travel reads must be
// bit-identical to what the live read path served at the same epoch, windowed
// estimates over Diff(SnapAt(e2), SnapAt(e1)) must land inside the mechanism's
// statistical envelope for exactly the reports of the window, and the same
// guarantees must survive the HTTP transport, the fleet merge, and a restart.
package ldp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/loadgen"
	"repro/internal/transport"
)

// historyCollector builds a durable collector with an aggressive retention
// ladder (full resolution 2, so coarsening kicks in after a handful of
// checkpoints).
func historyCollector(t *testing.T, dir string, agg ldp.Aggregator, w ldp.Workload) *ldp.Collector {
	t.Helper()
	col, err := ldp.NewCollector(agg, w, 0,
		ldp.WithDurability(dir, ldp.CheckpointEvery(0), ldp.HistoryKeep(2)))
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// The tentpole's core acceptance: for every mechanism family, SnapAt(e) over a
// live, still-ingesting durable collector is bit-identical in (state, count,
// identity) — and exact in epoch — to the snapshot Snap served when epoch e
// was current, for every retained epoch; and the identical history is served
// again after a restart. An epoch the ladder coarsened away is a definitive
// typed miss, and the nearest (floor) read serves the newest retained epoch
// at or below it.
func TestSnapAtBitIdenticalPerRetainedEpoch(t *testing.T) {
	const n, rounds, perRound = 16, 8, 150
	w := ldp.Histogram(n)
	for name, m := range e2eMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			col := historyCollector(t, dir, m.agg, w)
			closed := false
			defer func() {
				if !closed {
					col.Close()
				}
			}()

			rng := rand.New(rand.NewSource(11))
			ingest := func(count int) {
				t.Helper()
				for i := 0; i < count; i++ {
					rep, err := m.rz.Randomize(rng.Intn(n), rng)
					if err != nil {
						t.Fatal(err)
					}
					if err := col.Ingest(rep); err != nil {
						t.Fatal(err)
					}
				}
			}

			liveAt := make(map[uint64]ldp.Snapshot)
			var epochs []uint64 // checkpointed epochs, oldest first
			for r := 0; r < rounds; r++ {
				ingest(perRound)
				snap := col.Snap()
				liveAt[snap.Epoch()] = snap
				epochs = append(epochs, snap.Epoch())
				if err := col.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}

			// The collector stays LIVE while history is read: a background
			// ingester keeps reports flowing the whole time.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				brng := rand.New(rand.NewSource(99))
				for {
					select {
					case <-stop:
						return
					default:
					}
					rep, err := m.rz.Randomize(brng.Intn(n), brng)
					if err != nil {
						return
					}
					_ = col.Ingest(rep)
				}
			}()

			retained := col.RetainedEpochs()
			if len(retained) < 2 || len(retained) >= rounds {
				t.Fatalf("retention ladder did not coarsen %d checkpoints: retained %v", rounds, retained)
			}
			retainedSet := make(map[uint64]bool, len(retained))
			for _, e := range retained {
				retainedSet[e] = true
			}
			for _, e := range retained {
				want, ok := liveAt[e]
				if !ok {
					t.Fatalf("retained epoch %d was never served live", e)
				}
				got, err := col.SnapAt(e)
				if err != nil {
					t.Fatalf("SnapAt(%d): %v", e, err)
				}
				if got.Epoch() != e {
					t.Fatalf("SnapAt(%d) served epoch %d", e, got.Epoch())
				}
				requireSnapEqual(t, fmt.Sprintf("SnapAt(%d)", e), got, want)
			}

			// A coarsened-away epoch: definitive typed miss, floor read works.
			var coarsened uint64
			for _, e := range epochs {
				if !retainedSet[e] && e > retained[0] {
					coarsened = e
					break
				}
			}
			if coarsened == 0 {
				t.Fatalf("no coarsened epoch above the oldest retained one in %v / %v", epochs, retained)
			}
			_, err := col.SnapAt(coarsened)
			var enr *transport.EpochNotRetainedError
			if !errors.As(err, &enr) {
				t.Fatalf("SnapAt(%d) = %v, want EpochNotRetainedError", coarsened, err)
			}
			if enr.Requested != coarsened || enr.Oldest != retained[0] || enr.Newest != retained[len(retained)-1] {
				t.Fatalf("miss detail %+v for retained %v", enr, retained)
			}
			near, err := col.SnapAtNearest(coarsened)
			if err != nil {
				t.Fatalf("SnapAtNearest(%d): %v", coarsened, err)
			}
			if near.Epoch() != enr.Nearest || near.Epoch() > coarsened || !retainedSet[near.Epoch()] {
				t.Fatalf("SnapAtNearest(%d) served epoch %d (nearest %d, retained %v)",
					coarsened, near.Epoch(), enr.Nearest, retained)
			}
			requireSnapEqual(t, "SnapAtNearest", near, liveAt[near.Epoch()])

			close(stop)
			wg.Wait()
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			closed = true

			// A restarted collector serves the same history bit-identically.
			col2 := historyCollector(t, dir, m.agg, w)
			defer col2.Close()
			for _, e := range retained {
				got, err := col2.SnapAt(e)
				if err != nil {
					t.Fatalf("reopened SnapAt(%d): %v", e, err)
				}
				if got.Epoch() != e {
					t.Fatalf("reopened SnapAt(%d) served epoch %d", e, got.Epoch())
				}
				requireSnapEqual(t, fmt.Sprintf("reopened SnapAt(%d)", e), got, liveAt[e])
			}
		})
	}
}

// The windowed-estimation acceptance: the estimate over the window
// (e1, e2] — Diff of two retained snapshots — must reconstruct exactly the
// reports that arrived in that window, landing inside the mechanism's 6σ
// per-cell envelope around the window's true histogram, with reports before
// e1 and after e2 contributing nothing. The envelope is accept_test.go's
// (loadgen.Score), read at the window's Diff snapshot, so the variances are
// the WINDOW's rather than the collector's lifetime total's.
func TestWindowEstimateWithinEnvelope(t *testing.T) {
	const (
		n           = 32
		windowUsers = 20000
		preUsers    = 8000
		postUsers   = 5000
	)
	w := ldp.Histogram(n)

	// The window's true histogram: the acceptance fixture shape (half the
	// mass on type 0, geometrically decaying) scaled to windowUsers.
	xB := make([]float64, n)
	remaining := float64(windowUsers)
	share := 0.5
	for v := 0; v < n-1; v++ {
		c := math.Floor(float64(windowUsers) * share)
		if c > remaining {
			c = remaining
		}
		xB[v] = c
		remaining -= c
		share /= 2
		if share < 1.0/float64(windowUsers) {
			break
		}
	}
	xB[n-1] += remaining

	var cases []acceptCase
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, acceptCase{"strategy-rr", rz, agg})
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ldp.OracleByName(name, n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, acceptCase{name, o, o})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			col, err := ldp.NewCollector(c.agg, w, 0,
				ldp.WithDurability(dir, ldp.CheckpointEvery(0), ldp.HistoryKeep(4)))
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()

			rng := rand.New(rand.NewSource(acceptSeed))
			ingestUniform := func(count int) {
				t.Helper()
				for i := 0; i < count; i++ {
					rep, err := c.rz.Randomize(rng.Intn(n), rng)
					if err != nil {
						t.Fatal(err)
					}
					if err := col.Ingest(rep); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Preamble OUTSIDE the window, then the e1 checkpoint.
			ingestUniform(preUsers)
			e1 := col.Snap().Epoch()
			if err := col.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The window's reports: exactly xB.
			for v := range xB {
				for j := 0; j < int(xB[v]); j++ {
					rep, err := c.rz.Randomize(v, rng)
					if err != nil {
						t.Fatal(err)
					}
					if err := col.Ingest(rep); err != nil {
						t.Fatal(err)
					}
				}
			}
			e2 := col.Snap().Epoch()
			if err := col.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Postamble after the window: must not leak in either.
			ingestUniform(postUsers)

			s1, err := col.SnapAt(e1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := col.SnapAt(e2)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.Count() - s1.Count(); got != windowUsers {
				t.Fatalf("window holds %v reports, want %d", got, windowUsers)
			}
			window, err := s2.Diff(s1)
			if err != nil {
				t.Fatal(err)
			}
			e, err := loadgen.Score(c.agg, window, xB)
			if err != nil {
				t.Fatal(err)
			}
			// The envelope bounds the total too: leakage from the pre/post
			// populations would shift it by thousands.
			if !e.InEnvelope {
				t.Errorf("window estimate outside the envelope: %+v", e)
			}
			t.Logf("%s: window of %d: %+v", c.name, windowUsers, e)
		})
	}
}

// The HTTP path end to end: GET /snapshot?epoch= through a real loopback
// server serves each retained epoch bit-identically to what the live Snap
// returned over the same wire, a coarsened epoch is a definitive 404 naming
// the retained range, nearest=1 floors, and none of it disturbs the live
// read path's epoch high-water mark.
func TestRemoteSnapAtEndToEnd(t *testing.T) {
	const n, rounds, perRound = 16, 8, 80
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	dir := t.TempDir()
	col := historyCollector(t, dir, m.agg, w)
	defer col.Close()
	handler := collectorHandler(t, col, ldp.MechanismInfo{
		Mechanism: "strategy", Domain: m.agg.Domain(), Epsilon: m.rz.Epsilon(), Digest: m.digest,
	})
	hs := httptest.NewServer(handler)
	defer hs.Close()
	rc, err := ldp.NewRemoteCollector(hs.URL, m.agg, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(5))
	liveAt := make(map[uint64]ldp.Snapshot)
	var epochs []uint64
	for r := 0; r < rounds; r++ {
		var reports []ldp.Report
		for i := 0; i < perRound; i++ {
			rep, err := m.rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		if err := rc.IngestBatch(ctx, reports); err != nil {
			t.Fatal(err)
		}
		if err := rc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		snap, err := rc.Snap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		liveAt[snap.Epoch()] = snap
		epochs = append(epochs, snap.Epoch())
		if err := col.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	retained := col.RetainedEpochs()
	if len(retained) < 2 || len(retained) >= rounds {
		t.Fatalf("retention did not coarsen: %v", retained)
	}
	retainedSet := make(map[uint64]bool, len(retained))
	for _, e := range retained {
		retainedSet[e] = true
	}
	for _, e := range retained {
		want, ok := liveAt[e]
		if !ok {
			t.Fatalf("retained epoch %d was never observed live over HTTP", e)
		}
		got, err := rc.SnapAt(ctx, e)
		if err != nil {
			t.Fatalf("remote SnapAt(%d): %v", e, err)
		}
		if got.Epoch() != e {
			t.Fatalf("remote SnapAt(%d) served epoch %d", e, got.Epoch())
		}
		requireSnapEqual(t, fmt.Sprintf("remote SnapAt(%d)", e), got, want)
	}

	var coarsened uint64
	for _, e := range epochs {
		if !retainedSet[e] && e > retained[0] {
			coarsened = e
			break
		}
	}
	if coarsened == 0 {
		t.Fatalf("no coarsened epoch in %v / %v", epochs, retained)
	}
	// The exact read of a coarsened epoch is a definitive 404 whose message
	// carries the retained range — the client does not retry it.
	if _, err := rc.SnapAt(ctx, coarsened); err == nil || !strings.Contains(err.Error(), "not retained") {
		t.Fatalf("remote SnapAt(%d) = %v, want a definitive not-retained error", coarsened, err)
	}
	near, err := rc.SnapAtNearest(ctx, coarsened)
	if err != nil {
		t.Fatalf("remote SnapAtNearest(%d): %v", coarsened, err)
	}
	if near.Epoch() > coarsened || !retainedSet[near.Epoch()] {
		t.Fatalf("remote SnapAtNearest(%d) served epoch %d (retained %v)", coarsened, near.Epoch(), retained)
	}
	requireSnapEqual(t, "remote SnapAtNearest", near, liveAt[near.Epoch()])

	// Historical reads — including the failed one — left the live high-water
	// mark untouched: the next live Snap still works.
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("live snap after historical reads: %v", err)
	}
}

// scriptedHistory extends the scriptable epochBackend with a
// SnapshotAt whose answer the test controls — the stand-in for a server whose
// retained history disagrees with what it advertises.
type scriptedHistory struct {
	epochBackend
	mu   sync.Mutex
	hist transport.Snapshot
}

func (b *scriptedHistory) SnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := b.hist
	snap.State = append([]float64(nil), snap.State...)
	return snap, nil
}

func (b *scriptedHistory) setHist(count float64, epoch uint64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hist = transport.Snapshot{State: make([]float64, n), Count: count, Epoch: epoch}
}

// The satellite's client-side semantics: an exact historical request answered
// with a LOWER epoch is the lossy-restart signature and raises the same typed
// EpochRegressionError the live path uses; a nearest request answered ABOVE
// the bound is refused; and historical reads never advance the live path's
// regression high-water mark in either direction.
func TestRemoteSnapAtRegressionAndHighWaterMark(t *testing.T) {
	const n = 8
	agg, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	backend := &scriptedHistory{epochBackend: epochBackend{state: make([]float64, n), count: 40, epoch: 5}}
	srv, err := transport.NewServer(backend, transport.Info{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	rc, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Live snap pins the high-water mark at epoch 5.
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatal(err)
	}

	// An exact historical read below the mark is FINE — the past is allowed
	// to be older than the present.
	backend.setHist(10, 3, n)
	got, err := rc.SnapAt(ctx, 3)
	if err != nil {
		t.Fatalf("historical read below the live mark: %v", err)
	}
	if got.Epoch() != 3 {
		t.Fatalf("served epoch %d, want 3", got.Epoch())
	}

	// A server answering the exact request for epoch 4 with epoch 3 has lost
	// the history it advertised: typed regression error, Prev = requested.
	var reg *ldp.EpochRegressionError
	if _, err := rc.SnapAt(ctx, 4); !errors.As(err, &reg) {
		t.Fatalf("served-lower SnapAt returned %v, want EpochRegressionError", err)
	}
	if reg.Prev != 4 || reg.Observed != 3 {
		t.Fatalf("regression details %+v", reg)
	}

	// Floor semantics: an answer ABOVE the requested bound is refused too.
	backend.setHist(90, 9, n)
	if _, err := rc.SnapAtNearest(ctx, 7); err == nil {
		t.Fatal("nearest read accepted an epoch above the requested bound")
	}

	// A successful historical read AHEAD of the live mark (epoch 9 > 5) must
	// not advance it: the next live snap at epoch 5 is not a regression.
	if _, err := rc.SnapAt(ctx, 9); err != nil {
		t.Fatalf("historical read at epoch 9: %v", err)
	}
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("live snap regressed after a historical read advanced nothing: %v", err)
	}

	// The mark itself still works: a genuine live regression is caught.
	backend.set(3, 2)
	if _, err := rc.Snap(ctx); !errors.As(err, &reg) {
		t.Fatalf("live regression after historical reads returned %v", err)
	}
}

// Fleet.SnapAt merges the members' retained history with floor semantics and
// reports the raggedness: each durable member serves the newest epoch it
// retains at or below the bound, a history-less member is definitively
// missing (not retried, not stale-substituted), and the merge is the exact
// element-wise sum of what the members served.
func TestFleetSnapAtHistoricalMerge(t *testing.T) {
	const n, perRound = 16, 120
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	ctx := context.Background()

	type durShard struct {
		col *ldp.Collector
		hs  *httptest.Server
		e1  uint64 // first checkpointed epoch
		e2  uint64 // second checkpointed epoch
	}
	rng := rand.New(rand.NewSource(17))
	ingest := func(col *ldp.Collector, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			rep, err := m.rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}

	shards := make([]*durShard, 2)
	for i := range shards {
		col := historyCollector(t, t.TempDir(), m.agg, w)
		t.Cleanup(func() { col.Close() })
		handler := collectorHandler(t, col, ldp.MechanismInfoOf(m.agg))
		hs := httptest.NewServer(handler)
		t.Cleanup(hs.Close)
		sh := &durShard{col: col, hs: hs}
		ingest(col, perRound)
		sh.e1 = col.Snap().Epoch()
		if err := col.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ingest(col, perRound)
		sh.e2 = col.Snap().Epoch()
		if err := col.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ingest(col, perRound/2) // live tail beyond the last checkpoint
		shards[i] = sh
	}
	// A member with no durability: alive, but retains no history at all.
	memless, err := ldp.NewCollector(m.agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	memHandler := collectorHandler(t, memless, ldp.MechanismInfoOf(m.agg))
	memHS := httptest.NewServer(memHandler)
	defer memHS.Close()
	ingest(memless, perRound/2)

	fleet, err := ldp.NewFleet(m.agg, w,
		ldp.WithFleetRetryPolicy(fastRetryPolicy(2, nil)),
		ldp.WithFleetHTTPClient(&http.Client{}))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for _, sh := range shards {
		if err := fleet.Register(ctx, sh.hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.Register(ctx, memHS.URL); err != nil {
		t.Fatal(err)
	}

	// A bound that floors each durable shard onto its FIRST checkpoint: at or
	// above both e1 epochs, below both e2 epochs. Epochs advance only when a
	// snapshot is cut, so the two shards' ladders are near-aligned; assert the
	// precondition so a future epoch-numbering change fails loudly.
	bound := shards[0].e1
	if shards[1].e1 > bound {
		bound = shards[1].e1
	}
	if bound >= shards[0].e2 || bound >= shards[1].e2 {
		t.Fatalf("shards checkpointed at epochs (%d,%d) and (%d,%d): no bound floors both onto their first checkpoint",
			shards[0].e1, shards[0].e2, shards[1].e1, shards[1].e2)
	}

	merged, cov, err := fleet.SnapAt(ctx, bound)
	if err != nil {
		t.Fatalf("fleet SnapAt(%d): %v", bound, err)
	}
	if cov.Total != 3 || cov.Fresh != 2 {
		t.Fatalf("coverage %s, want 2 of 3 contributing", cov)
	}

	// The merge must be exactly the element-wise sum of what each durable
	// member retains at its floor epoch; the in-memory member contributes
	// nothing and is reported missing with a definitive reason.
	wantState := make([]float64, len(merged.State()))
	var wantCount float64
	servedEpochs := make(map[string]uint64)
	for _, sh := range shards {
		snap, err := sh.col.SnapAtNearest(bound)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range snap.State() {
			wantState[i] += v
		}
		wantCount += snap.Count()
		servedEpochs[sh.hs.URL] = snap.Epoch()
	}
	if merged.Count() != wantCount {
		t.Fatalf("merged historical count %v, want %v", merged.Count(), wantCount)
	}
	for i, v := range merged.State() {
		if math.Float64bits(v) != math.Float64bits(wantState[i]) {
			t.Fatalf("merged state[%d] = %x, want %x", i, math.Float64bits(v), math.Float64bits(wantState[i]))
		}
	}
	for _, sc := range cov.Shards {
		if want, ok := servedEpochs[sc.Endpoint]; ok {
			if sc.Status != ldp.CoverageFresh || sc.Epoch != want {
				t.Fatalf("durable shard coverage %+v, want fresh at epoch %d", sc, want)
			}
		} else {
			if sc.Status != ldp.CoverageMissing || !strings.Contains(sc.Err, "not retained") {
				t.Fatalf("history-less shard coverage %+v, want a definitive not-retained miss", sc)
			}
		}
	}
}

// The trend detector over a drifting population: consecutive same-distribution
// windows score near zero, and the window where the distribution shifts
// stands out in TV, L∞, and the per-cell rate sign.
func TestTrendDetectsDistributionShift(t *testing.T) {
	const n, perWindow = 8, 20000
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	col, err := ldp.NewCollector(m.agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ldp.NewEstimator(m.agg, w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ingest := func(pick func() int) {
		t.Helper()
		for i := 0; i < perWindow; i++ {
			rep, err := m.rz.Randomize(pick(), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	uniform := func() int { return rng.Intn(n) }
	// 80% of the mass jumps to cell 0, the rest stays uniform.
	shifted := func() int {
		if rng.Float64() < 0.8 {
			return 0
		}
		return rng.Intn(n)
	}

	ladder := []ldp.Snapshot{col.Snap()}
	ingest(uniform)
	ladder = append(ladder, col.Snap())
	ingest(uniform)
	ladder = append(ladder, col.Snap())
	ingest(shifted)
	ladder = append(ladder, col.Snap())

	tr, err := est.Trend(ladder)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Windows) != 3 || len(tr.Points) != 2 {
		t.Fatalf("trend shape: %d windows, %d points", len(tr.Windows), len(tr.Points))
	}
	for _, win := range tr.Windows {
		if win.Count != perWindow {
			t.Fatalf("window (%d,%d] holds %v reports, want %d", win.FromEpoch, win.ToEpoch, win.Count, perWindow)
		}
	}
	steady, drift := tr.Points[0], tr.Points[1]
	if steady.TV > 0.2 {
		t.Fatalf("uniform-vs-uniform TV %.3f — noise alone should stay small", steady.TV)
	}
	if drift.TV < 0.35 || drift.LInf < 0.35 {
		t.Fatalf("shift window scored TV %.3f, L∞ %.3f — the 80%% jump must dominate", drift.TV, drift.LInf)
	}
	if tr.MaxTV != drift.TV {
		t.Fatalf("MaxTV %.3f is not the drift point's %.3f", tr.MaxTV, drift.TV)
	}
	// The moving cell is cell 0, and it moved UP.
	if drift.Rate[0] <= 0 {
		t.Fatalf("cell 0 rate %.4f, want positive — that is where the mass went", drift.Rate[0])
	}
	for v := 1; v < n; v++ {
		if drift.Rate[v] >= drift.Rate[0] {
			t.Fatalf("cell %d rate %.4f outranks the shifted cell's %.4f", v, drift.Rate[v], drift.Rate[0])
		}
	}
	t.Logf("steady TV %.3f, drift TV %.3f L∞ %.3f", steady.TV, drift.TV, drift.LInf)
}
