package ldp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/transport"
)

// walSegments returns the data directory's WAL segment paths, ascending.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// requireSnapEqual asserts two snapshots agree bit-for-bit in (state, count,
// mechanism identity) — the crash-consistency contract. Epochs are
// deliberately excluded: recovery re-seeds the epoch past the pre-crash one.
func requireSnapEqual(t *testing.T, label string, got, want ldp.Snapshot) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %v, want %v", label, got.Count(), want.Count())
	}
	if got.Info() != want.Info() {
		t.Fatalf("%s: identity %+v, want %+v", label, got.Info(), want.Info())
	}
	gs, ws := got.State(), want.State()
	if len(gs) != len(ws) {
		t.Fatalf("%s: state width %d, want %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
			t.Fatalf("%s: state[%d] = %v, want %v (bit mismatch)", label, i, gs[i], ws[i])
		}
	}
}

// randomBatches randomizes the given per-batch sizes through a mechanism's
// randomizer at a fixed seed.
func randomBatches(t *testing.T, rz ldp.Randomizer, n int, sizes []int, seed int64) [][]ldp.Report {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]ldp.Report, len(sizes))
	for b, sz := range sizes {
		out[b] = make([]ldp.Report, sz)
		for i := range out[b] {
			rep, err := rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			out[b][i] = rep
		}
	}
	return out
}

// referenceSnap absorbs batches into a fresh serial reference and returns its
// snapshot — the ground truth a recovery must reproduce.
func referenceSnap(t *testing.T, agg ldp.Aggregator, batches [][]ldp.Report) ldp.Snapshot {
	t.Helper()
	ref := newSerialRef(agg)
	for _, b := range batches {
		ref.add(t, b...)
	}
	return ref.snap()
}

// The headline durability guarantee, per mechanism family: kill the collector
// at an arbitrary point of the final WAL append — simulated by truncating the
// log at EVERY byte offset of the final record — restart, and the recovered
// snapshot is bit-identical in (state, count, mechanism identity) to a
// reference collector that absorbed exactly the acknowledged batches: the
// fully-ingested prefix when the final record is torn, every batch when it
// is complete.
func TestCrashRecoveryBitIdenticalAtEveryTruncation(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	sizes := []int{3, 5, 2, 4}
	for name, m := range e2eMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			batches := randomBatches(t, m.rz, n, sizes, 7)
			dir := t.TempDir()
			col, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < len(batches)-1; b++ {
				if err := col.IngestBatchKeyed(batches[b], fmt.Sprintf("key-%d", b)); err != nil {
					t.Fatal(err)
				}
			}
			segs := walSegments(t, dir)
			if len(segs) != 1 {
				t.Fatalf("expected one WAL segment, found %v", segs)
			}
			st, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			finalStart := st.Size()
			if err := col.IngestBatchKeyed(batches[len(batches)-1], "key-final"); err != nil {
				t.Fatal(err)
			}
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) <= finalStart {
				t.Fatalf("final record added no bytes (%d → %d)", finalStart, len(data))
			}

			wantPrefix := referenceSnap(t, m.agg, batches[:len(batches)-1])
			wantAll := referenceSnap(t, m.agg, batches)

			base := filepath.Base(segs[0])
			for off := finalStart; off <= int64(len(data)); off++ {
				crashDir := t.TempDir()
				if err := os.WriteFile(filepath.Join(crashDir, base), data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				rec, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(crashDir, ldp.CheckpointEvery(0)))
				if err != nil {
					t.Fatalf("truncated at %d: recovery failed: %v", off, err)
				}
				want := wantPrefix
				if off == int64(len(data)) {
					want = wantAll
				}
				requireSnapEqual(t, fmt.Sprintf("truncated at byte %d of [%d,%d]", off, finalStart, len(data)), rec.Snap(), want)
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The same guarantee with a checkpoint in the history: recovery must compose
// checkpoint state + WAL tail, and a torn tail after a checkpoint must fall
// back to exactly the checkpointed-plus-acknowledged prefix.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	batches := randomBatches(t, m.rz, n, []int{4, 3, 5}, 11)

	dir := t.TempDir()
	col, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := col.IngestBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := col.IngestBatchKeyed(batches[2], "post-ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	segs := walSegments(t, dir)
	active := segs[len(segs)-1]
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := referenceSnap(t, m.agg, batches[:2])
	wantAll := referenceSnap(t, m.agg, batches)

	for off := int64(0); off <= int64(len(data)); off++ {
		crashDir := t.TempDir()
		// Copy the whole directory (checkpoint + any other segments), then
		// truncate the active segment at off.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == filepath.Base(active) {
				src = src[:off]
			}
			if err := os.WriteFile(filepath.Join(crashDir, e.Name()), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(crashDir, ldp.CheckpointEvery(0)))
		if err != nil {
			t.Fatalf("truncated at %d: recovery failed: %v", off, err)
		}
		want := wantPrefix
		if off == int64(len(data)) {
			want = wantAll
		}
		requireSnapEqual(t, fmt.Sprintf("post-checkpoint tail truncated at %d", off), rec.Snap(), want)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A client retry whose response was lost to a server crash must absorb
// exactly once across the restart: the WAL records the idempotency key with
// the batch, recovery seeds the transport's cache with it, and the retried
// request replays instead of re-absorbing.
func TestDurableRestartReplaysIdempotencyKey(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["OUE"]
	reports := randomBatches(t, m.rz, n, []int{10}, 13)[0]
	dir := t.TempDir()
	info := ldp.MechanismInfo{Mechanism: "OUE", Domain: n, Epsilon: 1}
	ctx := context.Background()

	col1, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	h1 := collectorHandler(t, col1, info)
	hs1 := httptest.NewServer(h1)
	tc1, err := transport.NewClient(hs1.URL, hs1.Client())
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := tc1.PostReportsKeyed(ctx, reports, "retry-me"); err != nil || acc != len(reports) {
		t.Fatalf("first keyed post: accepted %d, err %v", acc, err)
	}
	// Crash: the response to the client is "lost", the server dies.
	hs1.Close()
	if err := col1.Close(); err != nil {
		t.Fatal(err)
	}

	col2, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if got := col2.Count(); got != float64(len(reports)) {
		t.Fatalf("recovered count %v, want %d", got, len(reports))
	}
	h2 := collectorHandler(t, col2, info)
	hs2 := httptest.NewServer(h2)
	defer hs2.Close()
	tc2, err := transport.NewClient(hs2.URL, hs2.Client())
	if err != nil {
		t.Fatal(err)
	}
	// The client's retry of the same keyed batch must not re-absorb. The
	// seeded outcome is a definitive 409 carrying the recovered count — the
	// log proves that many reports landed under the key but not that they
	// were the whole request, so the client is told to trim exactly that
	// prefix (and re-send any remainder under a fresh key).
	acc, err := tc2.PostReportsKeyed(ctx, reports, "retry-me")
	var se *transport.StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusConflict {
		t.Fatalf("retried keyed post: accepted %d, err %v, want a 409 StatusError", acc, err)
	}
	if acc != len(reports) {
		t.Fatalf("retried keyed post reported %d accepted, want the recovered %d", acc, len(reports))
	}
	if got := col2.Count(); got != float64(len(reports)) {
		t.Fatalf("count after replayed retry %v, want %d (double absorb)", got, len(reports))
	}
	// A genuinely new key still absorbs.
	if acc, err := tc2.PostReportsKeyed(ctx, reports, "fresh-key"); err != nil || acc != len(reports) {
		t.Fatalf("fresh keyed post: accepted %d, err %v", acc, err)
	}
	if got := col2.Count(); got != float64(2*len(reports)) {
		t.Fatalf("count after fresh key %v, want %d", got, 2*len(reports))
	}
	// /healthz reports the recovery.
	h, err := tc2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Durability == nil || !h.Durability.Recovered || h.Durability.RecoveredReports != int64(len(reports)) {
		t.Fatalf("healthz durability %+v", h.Durability)
	}
}

// A batch the write-ahead log cannot take (here: the store is closed; in
// production ENOSPC or EIO) was valid, so the served collector answers a
// retryable 503 — not a 400 the client would take as a verdict on the batch.
func TestDurableWALFailureAnswersRetryable(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["OUE"]
	col, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(collectorHandler(t, col, ldp.MechanismInfoOf(m.agg)))
	defer hs.Close()
	tc, err := transport.NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = tc.PostReportsKeyed(context.Background(), randomBatches(t, m.rz, n, []int{5}, 3)[0], "during-outage")
	var se *ldp.StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable || !se.Temporary() {
		t.Fatalf("ingest with the WAL closed: %v, want a retryable 503", err)
	}
	if col.Count() != 0 {
		t.Fatalf("a batch the WAL refused was absorbed: count %v", col.Count())
	}
}

// A keyed ingest whose WAL records straddle a checkpoint cut must still seed
// its FULL absorbed count after a restart — the checkpoint carries the key
// table forward — so the retrying client trims everything that landed
// instead of double-absorbing the checkpointed prefix.
func TestDurableRestartSeedsKeysAcrossCheckpoint(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	batches := randomBatches(t, m.rz, n, []int{6, 4}, 23)
	dir := t.TempDir()

	col1, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := col1.IngestBatchKeyed(batches[0], "straddle"); err != nil {
		t.Fatal(err)
	}
	if err := col1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := col1.IngestBatchKeyed(batches[1], "straddle"); err != nil {
		t.Fatal(err)
	}
	if err := col1.Close(); err != nil {
		t.Fatal(err)
	}

	col2, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	h2 := collectorHandler(t, col2, ldp.MechanismInfo{Domain: n})
	hs := httptest.NewServer(h2)
	defer hs.Close()
	tc, err := transport.NewClient(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]ldp.Report(nil), batches[0]...), batches[1]...)
	acc, err := tc.PostReportsKeyed(context.Background(), all, "straddle")
	var se *transport.StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusConflict {
		t.Fatalf("straddling retry: accepted %d, err %v, want 409", acc, err)
	}
	if acc != len(all) {
		t.Fatalf("straddling retry reported %d accepted, want the full %d (checkpointed %d + replayed %d)", acc, len(all), len(batches[0]), len(batches[1]))
	}
	if got := col2.Count(); got != float64(len(all)) {
		t.Fatalf("count after straddling retry %v, want %d", got, len(all))
	}
}

// The snapshot epoch must not move backwards across a durable restart — that
// regression is the lossy-restart symptom EpochRegressionError exists for,
// so a clean recovery must never trigger it.
func TestDurableRecoveryEpochMonotonic(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["OLH"]
	batches := randomBatches(t, m.rz, n, []int{5, 5, 5}, 17)
	dir := t.TempDir()

	col1, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	var last ldp.Snapshot
	for _, b := range batches {
		if err := col1.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
		last = col1.Snap() // observe a state per batch: the epoch advances each time
	}
	if err := col1.Close(); err != nil {
		t.Fatal(err)
	}

	col2, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	recovered := col2.Snap()
	if recovered.Epoch() <= last.Epoch() {
		t.Fatalf("recovered epoch %d does not exceed pre-crash epoch %d", recovered.Epoch(), last.Epoch())
	}
	requireSnapEqual(t, "recovered snapshot", recovered, last)
}

// Reports logged under one mechanism must never replay into another: every
// WAL record carries a mechanism fingerprint (the strategy digest, or the
// (name, domain, ε) triple for oracles, which that triple fully determines),
// and the checkpoint carries the full identity. The dangerous pairs are the
// ones whose reports are mutually *absorbable* — OUE and RAPPOR share the
// unary report shape, and one oracle at two ε values shares everything but
// the constants — so only the fingerprint stands between them and a silently
// wrong estimate.
func TestDurableRecoveryRejectsMechanismMismatch(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	ms := e2eMechanisms(t, n)
	seed := func(t *testing.T, m e2eMechanism, checkpoint bool) string {
		t.Helper()
		dir := t.TempDir()
		col, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := col.IngestBatch(randomBatches(t, m.rz, n, []int{4}, 19)[0]); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := col.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	otherEps, err := ldp.OracleByName("OUE", n, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		written    e2eMechanism
		reopenAs   ldp.Aggregator
		checkpoint bool
	}{
		// Checkpointless WAL under OUE reopened as RAPPOR: same report
		// shape, only the record fingerprint refuses.
		"wal-only OUE into RAPPOR": {ms["OUE"], ms["RAPPOR"].agg, false},
		// Same oracle, different ε — name and domain agree, ε must not.
		"wal-only OUE ε=1 into ε=2": {ms["OUE"], otherEps, false},
		// With a checkpoint, the full identity check refuses too.
		"checkpointed OUE into OLH": {ms["OUE"], ms["OLH"].agg, true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := seed(t, tc.written, tc.checkpoint)
			if _, err := ldp.NewCollector(tc.reopenAs, w, 0, ldp.WithDurability(dir)); err == nil {
				t.Fatalf("%s: foreign history recovered without error", name)
			}
		})
	}
}

// strictOUE is OUE whose Check also refuses any report with bit 3 set: a
// mechanism under which a log written by plain OUE holds a record that fails
// Check, with the same name, domain and ε, so the WAL fingerprint matches.
type strictOUE struct{ ldp.FrequencyOracle }

func (s strictOUE) Check(r ldp.Report) error {
	if r.Bits.Present() && r.Bits.Len() > 3 && r.Bits.Get(3) {
		return errors.New("bit 3 is refused")
	}
	return s.FrequencyOracle.Check(r)
}

// Recovery checks every replayed report as ingest does: a WAL record holding
// a report the mechanism's Check refuses fails NewCollector, naming the cause,
// instead of being absorbed.
func TestDurableRecoveryRefusesRecordFailingCheck(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	col, err := ldp.NewCollector(oue, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
	if err != nil {
		t.Fatal(err)
	}
	good, bad := ldp.Report{Bits: ldp.NewBitVec(n)}, ldp.Report{Bits: ldp.NewBitVec(n)}
	good.Bits.Set(1)
	bad.Bits.Set(3)
	if err := col.IngestBatch([]ldp.Report{good}); err != nil {
		t.Fatal(err)
	}
	if err := col.IngestBatch([]ldp.Report{good, bad}); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ldp.NewCollector(strictOUE{oue}, w, 0, ldp.WithDurability(dir)); err == nil || !strings.Contains(err.Error(), "bit 3 is refused") {
		t.Fatalf("recovery of a record failing Check: err = %v, want the Check error", err)
	}
	rec, err := ldp.NewCollector(oue, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Count() != 3 {
		t.Fatalf("recovered %v reports under the mechanism that wrote them, want 3", rec.Count())
	}
}

// brokenOUE breaks the Aggregator contract: its Check passes a report with
// bit 3 set that its Absorb refuses.
type brokenOUE struct{ ldp.FrequencyOracle }

func (b brokenOUE) Absorb(acc []float64, r ldp.Report) error {
	if r.Bits.Present() && r.Bits.Len() > 3 && r.Bits.Get(3) {
		return errors.New("bit 3 is refused")
	}
	return b.FrequencyOracle.Absorb(acc, r)
}

// A WAL record holding a report the aggregator's Check passes and its Absorb
// refuses fails recovery with an error naming the broken contract: it does
// not panic inside NewCollector, whether the report is alone in its record
// or follows one that was already absorbed.
func TestDurableRecoveryRefusesRecordFailingAbsorb(t *testing.T) {
	const n = 8
	w := ldp.Histogram(n)
	oue, err := ldp.NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := ldp.Report{Bits: ldp.NewBitVec(n)}, ldp.Report{Bits: ldp.NewBitVec(n)}
	good.Bits.Set(1)
	bad.Bits.Set(3)
	for _, tc := range []struct {
		record []ldp.Report
		want   string
	}{
		{[]ldp.Report{bad}, "contract on report 0: bit 3 is refused"},
		{[]ldp.Report{good, bad}, "contract on report 1: bit 3 is refused"},
	} {
		dir := t.TempDir()
		col, err := ldp.NewCollector(oue, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(0)))
		if err != nil {
			t.Fatal(err)
		}
		if err := col.IngestBatch(tc.record); err != nil {
			t.Fatal(err)
		}
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ldp.NewCollector(brokenOUE{oue}, w, 0, ldp.WithDurability(dir)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("recovery of a %d-report record failing Absorb: err = %v, want %q", len(tc.record), err, tc.want)
		}
	}
}

// Steady-state durable ingest with the buffered WAL (the production default)
// must not allocate: the record is encoded into a recycled buffer and the
// group commit swaps, not grows, its pending slice.
func TestDurableIngestBatchKeyedAllocs(t *testing.T) {
	const n, batch = 64, 64
	strat, err := ldp.NewAggregator(baselines.RandomizedResponse(n, 1.0).Strategy())
	if err != nil {
		t.Fatal(err)
	}
	indexed := make([]ldp.Report, batch)
	for i := range indexed {
		indexed[i] = ldp.Report{Index: (i * 7) % n}
	}
	// The unary family's reports carry n/8 bytes each: the record encoder's
	// one-shot reservation has to count them, or the buffer regrows.
	oue, err := ldp.OracleByName("OUE", 256, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	unary := make([]ldp.Report, batch)
	rng := rand.New(rand.NewSource(1))
	for i := range unary {
		if unary[i], err = oue.Randomize(i%256, rng); err != nil {
			t.Fatal(err)
		}
	}
	for name, tc := range map[string]struct {
		agg     ldp.Aggregator
		reports []ldp.Report
	}{"strategy": {strat, indexed}, "OUE": {oue, unary}} {
		t.Run(name, func(t *testing.T) {
			// Checkpoints off: the pin isolates the append path.
			col, err := ldp.NewCollector(tc.agg, ldp.Histogram(tc.agg.Domain()), 0,
				ldp.WithDurability(t.TempDir(), ldp.CheckpointEvery(0)))
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			ingest := func() {
				if err := col.IngestBatchKeyed(tc.reports, "00f1e2d3c4b5a6978877665544332211"); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ { // touch every shard's buffers before measuring
				ingest()
			}
			if allocs := testing.AllocsPerRun(100, ingest); allocs != 0 {
				t.Fatalf("buffered-WAL IngestBatchKeyed allocates %v times per batch, want 0", allocs)
			}
		})
	}
}

// TestDurableCollectorConcurrentIngest is the race-enabled crash-recovery
// ingest test: 8 goroutines ingest keyed batches through one durable
// collector with a checkpoint interval small enough that rotations and
// checkpoint cuts interleave with ingest, while a reader polls snapshots.
// The directory must then recover bit-identical to a serial reference.
func TestDurableCollectorConcurrentIngest(t *testing.T) {
	const n, writers, perWriter, batchSize = 32, 8, 10, 25
	w := ldp.Histogram(n)
	m := e2eMechanisms(t, n)["strategy"]
	all := make([][][]ldp.Report, writers)
	for g := range all {
		sizes := make([]int, perWriter)
		for i := range sizes {
			sizes[i] = batchSize
		}
		all[g] = randomBatches(t, m.rz, n, sizes, int64(100+g))
	}
	dir := t.TempDir()
	col, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir, ldp.CheckpointEvery(200)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, b := range all[g] {
				if err := col.IngestBatchKeyed(b, fmt.Sprintf("w%d-%d", g, i)); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if err := col.Ingest(b[0]); err != nil { // the single-report path too
						errs <- err
						return
					}
				}
				_ = col.Snap() // reads race checkpoint cuts and ingest
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := col.Snap()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := ldp.NewCollector(m.agg, w, 0, ldp.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireSnapEqual(t, "concurrent durable ingest", rec.Snap(), before)
	if st, ok := rec.Durability(); !ok || !st.Recovered {
		t.Fatalf("durability status %+v, ok=%v", st, ok)
	}
}
