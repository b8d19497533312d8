package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestLoadgenShardProcess is where StartShard's re-exec of this test binary
// serves its shard; in a normal test run it returns at once.
func TestLoadgenShardProcess(t *testing.T) {
	RunShardFromEnv()
}

func TestZipfTableDeterministicAndNormalized(t *testing.T) {
	z := newZipfTable(64, 1.1)
	if got := z.cdf[63]; got != 1 {
		t.Fatalf("cdf tail = %v, want exactly 1", got)
	}
	// Head-heavy: rank 0 must hold more mass than ranks 32..63 combined.
	head := z.cdf[0]
	tail := z.cdf[63] - z.cdf[31]
	if head <= tail {
		t.Fatalf("zipf s=1.1 not head-heavy: head %v <= tail %v", head, tail)
	}
	// Same parameters → identical table.
	z2 := newZipfTable(64, 1.1)
	for r := range z.cdf {
		if z.cdf[r] != z2.cdf[r] {
			t.Fatalf("cdf[%d] differs across builds: %v vs %v", r, z.cdf[r], z2.cdf[r])
		}
	}
	// Uniform degenerate case.
	u := newZipfTable(4, 0)
	if u.sample(0.0) != 0 || u.sample(0.26) != 1 || u.sample(0.99) != 3 {
		t.Fatalf("uniform table samples wrong: %d %d %d", u.sample(0.0), u.sample(0.26), u.sample(0.99))
	}
}

func TestPopulationReproducible(t *testing.T) {
	scn := SmokeScenario(42)
	scn.Clients = 20000
	a := buildPopulation(&scn)
	b := buildPopulation(&scn)
	if a.Participants != b.Participants || a.Abandoned != b.Abandoned {
		t.Fatalf("counts differ: (%d,%d) vs (%d,%d)", a.Participants, a.Abandoned, b.Participants, b.Abandoned)
	}
	for v := range a.Truth {
		if a.Truth[v] != b.Truth[v] {
			t.Fatalf("truth[%d] differs: %v vs %v", v, a.Truth[v], b.Truth[v])
		}
	}
	if a.Abandoned == 0 {
		t.Fatal("abandon rate 0.02 over 20k clients produced zero abandonments")
	}
	// A different seed moves the population.
	scn2 := scn
	scn2.Seed = 43
	c := buildPopulation(&scn2)
	same := c.Participants == a.Participants && c.Abandoned == a.Abandoned
	if same {
		for v := range a.Truth {
			if a.Truth[v] != c.Truth[v] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical population")
	}
}

func TestPopulationPhaseShiftMovesHotHead(t *testing.T) {
	scn := SmokeScenario(7)
	scn.Clients = 30000
	scn.AbandonRate = 0
	p := buildPopulation(&scn)
	// Per-phase histograms: the argmax must move by ShiftPerPhase between
	// phases (modulo the domain) because item = (rank + phase·shift) % n.
	hot := make([]int, scn.Phases)
	for ph := 0; ph < scn.Phases; ph++ {
		hist := make([]float64, scn.Domain)
		for c := p.phaseStart[ph]; c < p.phaseStart[ph+1]; c++ {
			item, ab := p.client(c)
			if !ab {
				hist[item]++
			}
		}
		best := 0
		for v := range hist {
			if hist[v] > hist[best] {
				best = v
			}
		}
		hot[ph] = best
	}
	for ph := 1; ph < scn.Phases; ph++ {
		want := (hot[0] + ph*scn.ShiftPerPhase) % scn.Domain
		if hot[ph] != want {
			t.Fatalf("phase %d hot item = %d, want %d (phase 0 hot %d shifted)", ph, hot[ph], want, hot[0])
		}
	}
}

func TestWorkerRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ clients, workers int }{{10, 3}, {100, 8}, {7, 7}, {5, 8}, {50001, 8}} {
		seen := 0
		prevHi := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := workerRange(tc.clients, tc.workers, w)
			if lo != prevHi {
				t.Fatalf("clients=%d workers=%d: worker %d starts at %d, want %d", tc.clients, tc.workers, w, lo, prevHi)
			}
			seen += hi - lo
			prevHi = hi
		}
		if seen != tc.clients || prevHi != tc.clients {
			t.Fatalf("clients=%d workers=%d: partition covers %d ending at %d", tc.clients, tc.workers, seen, prevHi)
		}
	}
}

// TestRunReproducible drives a small scenario twice (shard processes, full
// fault schedule) and asserts the deterministic scorecard sections are
// bit-identical and the run passes the exactly-once + envelope gate.
func TestRunReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("two real-time runs of the smoke schedule take about a minute")
	}
	scn := SmokeScenario(1234)
	scn.Name = "repro"
	scn.Clients = 6000
	scn.Workers = 4
	scn.Batch = 256
	run := func() *Scorecard {
		t.Helper()
		card, err := Run(context.Background(), RunConfig{
			Scenario: scn,
			Deploy: DeployConfig{
				Shards:  2,
				BaseDir: t.TempDir(),
				Shard:   ShardConfig{CheckpointEvery: 2000},
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return card
	}
	a := run()
	if !a.Passed() {
		t.Fatalf("run failed gate: exactly-once=%v (acked %d absorbed %d) in-envelope=%v (max cell err %.2f env %.2f)",
			a.Counts.ExactlyOnce, a.Counts.AckedReports, a.Counts.AbsorbedReports,
			a.Estimates.InEnvelope, a.Estimates.MaxAbsCellError, a.Estimates.CellEnvelope)
	}
	if a.Counts.ScheduleFired != a.Counts.ScheduleEvents {
		t.Fatalf("schedule fired %d of %d events", a.Counts.ScheduleFired, a.Counts.ScheduleEvents)
	}
	if a.Ops.MinShardsReady >= 2 {
		t.Fatalf("kill+drain schedule never degraded readiness: min ready %d", a.Ops.MinShardsReady)
	}
	b := run()
	if !a.DeterministicEqual(b) {
		t.Fatalf("scorecards diverge at same seed:\n a: %+v %+v\n b: %+v %+v",
			a.Counts, a.Estimates, b.Counts, b.Estimates)
	}
}

// TestRunScheduleAppliesFaults sanity-checks Apply plumbing without a full
// run: deploy, kill a shard, watch readiness drop, restart, watch it recover.
func TestRunScheduleAppliesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a live deployment")
	}
	ctx := context.Background()
	d, err := Deploy(ctx, DeployConfig{
		Shards:  2,
		BaseDir: t.TempDir(),
		Shard: ShardConfig{
			Mechanism: "oue", Domain: 16, Epsilon: 1, CheckpointEvery: 1000,
		},
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer d.Close()
	if err := d.Apply(ctx, chaos.Event{Kind: chaos.EventKill, Shard: 0}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool { return d.ReadyCount() == 1 }, "fleet never saw the kill")
	if err := d.Apply(ctx, chaos.Event{Kind: chaos.EventRestart, Shard: 0}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := d.waitReady(ctx, 2, 15*time.Second); err != nil {
		t.Fatalf("restarted shard never re-admitted: %v", err)
	}
}

// TestStartShardReportsChildExit: a shard process that exits during start
// fails the start at once with its exit status, not at the poll's deadline.
func TestStartShardReportsChildExit(t *testing.T) {
	start := time.Now()
	_, err := StartShard(context.Background(), ShardConfig{
		Mechanism: "bogus", Domain: 16, Epsilon: 1, DataDir: t.TempDir(),
	})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("start took %v, want the child's exit reported within 5s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("start error = %v, want one naming the child's exit status", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
