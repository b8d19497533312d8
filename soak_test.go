// Soak tier: the loadgen scenario harness doubles as a go test tier that
// drives the full ldprouter→ldpserve deployment — real subprocess shards,
// real SIGKILLs, WAL recovery, drains, and lossy proxies — under a seeded
// 100k-client zipfian storm, then asserts the two system-level invariants
// everything else in this repo argues for locally:
//
//   - exactly-once: every acknowledged report is absorbed exactly once,
//     through kill/restart/drain/storm (acknowledged == absorbed);
//   - estimate envelopes: the merged estimate lands inside the repo's
//     statistical-acceptance envelopes (6σ per cell with 1.5× variance
//     slack, 4× expected TSE) against the generator's known ground truth.
//
// These runs take tens of seconds, so they skip under -short; CI runs them
// in the race matrix without -short.
package ldp_test

import (
	"context"
	"testing"

	"repro/internal/loadgen"
)

// TestLoadgenShardProcess is where loadgen.StartShard's re-exec of this test
// binary serves its shard — the soak tier's shards and the chaos test's
// killed shard alike; in a normal test run it returns at once.
func TestLoadgenShardProcess(t *testing.T) {
	loadgen.RunShardFromEnv()
}

func runSoak(t *testing.T, scn loadgen.Scenario) *loadgen.Scorecard {
	t.Helper()
	card, err := loadgen.Run(context.Background(), loadgen.RunConfig{
		Scenario: scn,
		Deploy: loadgen.DeployConfig{
			Shards:  3,
			BaseDir: t.TempDir(),
			Shard:   loadgen.ShardConfig{CheckpointEvery: 5000},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	return card
}

// TestSoakExactlyOnceUnderLoad asserts the durability pipeline's headline
// invariant at storm scale: after 100k seeded clients pushed reports through
// a fleet that lost a shard to SIGKILL, drained another, and ran a lossy
// proxy plan, every acknowledged report is absorbed exactly once.
func TestSoakExactlyOnceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tier: skipped under -short")
	}
	card := runSoak(t, loadgen.SoakScenario(1))
	if card.Counts.AckedReports != card.Counts.OfferedReports {
		t.Errorf("settle left reports unacknowledged: offered %d, acked %d",
			card.Counts.OfferedReports, card.Counts.AckedReports)
	}
	if !card.Counts.ExactlyOnce {
		t.Errorf("exactly-once violated: acked %d, absorbed %d (lost %+d)",
			card.Counts.AckedReports, card.Counts.AbsorbedReports,
			card.Counts.AbsorbedReports-card.Counts.AckedReports)
	}
	if card.Counts.ScheduleFired != card.Counts.ScheduleEvents {
		t.Errorf("fault schedule incomplete: fired %d of %d events",
			card.Counts.ScheduleFired, card.Counts.ScheduleEvents)
	}
	if card.Ops.MinShardsReady >= card.Ops.ShardsTotal {
		t.Errorf("storm never degraded the fleet: min ready %d of %d",
			card.Ops.MinShardsReady, card.Ops.ShardsTotal)
	}
}

// TestSoakEstimateEnvelopeZipfian asserts the statistical half: the merged
// estimate over the zipfian (s=1.1, time-shifting) population lands inside
// the acceptance envelopes, and the deterministic sections reproduce
// bit-identically at the same seed on a second full run.
func TestSoakEstimateEnvelopeZipfian(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tier: skipped under -short")
	}
	scn := loadgen.SoakScenario(2)
	card := runSoak(t, scn)
	if !card.Estimates.InEnvelope {
		t.Errorf("estimates outside envelope: %+v", card.Estimates)
	}
	if card.Estimates.TSE == 0 {
		t.Error("zero estimate error over a randomized mechanism: scoring is broken")
	}
	again := runSoak(t, scn)
	if !card.DeterministicEqual(again) {
		t.Errorf("scorecards diverge at seed %d:\n first: %+v %+v\nsecond: %+v %+v",
			scn.Seed, card.Counts, card.Estimates, again.Counts, again.Estimates)
	}
}
