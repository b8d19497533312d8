package loadgen

import (
	"math"

	"repro/internal/chaos"
)

// Counts is the deterministic accounting of a run: at a fixed seed these
// values are bit-identical across repeats, worker counts, and machines —
// the section reproducibility checks compare.
type Counts struct {
	Clients      int64 `json:"clients"`
	Abandoned    int64 `json:"abandoned"`
	Participants int64 `json:"participants"`
	// OfferedReports == Participants: every participant's report enters the
	// pipeline. AckedReports is how many the deployment acknowledged (after
	// settle this equals offered — the retry discipline never gives up), and
	// AbsorbedReports is the merged snapshot's count: what the shards hold.
	OfferedReports  int64 `json:"offered_reports"`
	AckedReports    int64 `json:"acked_reports"`
	AbsorbedReports int64 `json:"absorbed_reports"`
	// ExactlyOnce is the headline invariant: acknowledged == absorbed — no
	// report lost, none double-counted, through every injected fault.
	ExactlyOnce bool `json:"exactly_once"`
	// ScheduleEvents/ScheduleFired prove the fault schedule actually ran.
	ScheduleEvents int     `json:"schedule_events"`
	ScheduleFired  int     `json:"schedule_fired"`
	TruthTotal     float64 `json:"truth_total"`
}

// Estimates scores the final merged estimate against ground truth under the
// repo's statistical-acceptance envelope (6σ per cell with 1.5 variance
// slack, 4× expected total squared error). Deterministic at a fixed seed.
type Estimates struct {
	MaxAbsCellError float64 `json:"max_abs_cell_error"`
	CellEnvelope    float64 `json:"cell_envelope"`
	TSE             float64 `json:"tse"`
	TSEBound        float64 `json:"tse_bound"`
	EstimatedTotal  float64 `json:"estimated_total"`
	InEnvelope      bool    `json:"in_envelope"`
}

// Ops is the operational (timing-dependent) half of the scorecard: WAL lag,
// coverage, telemetry reconciliation, chaos counters. Varies run to run;
// excluded from reproducibility comparisons. It carries no latency or
// throughput numbers — performance is the bench/ ledger's job.
type Ops struct {
	DurationSec float64 `json:"duration_sec"`
	// Coverage of the final merged snapshot, plus the worst (lowest ready
	// count) moment observed during the run — the degradation the scenario
	// drove.
	ShardsMerged   int `json:"shards_merged"`
	ShardsTotal    int `json:"shards_total"`
	ShardsStale    int `json:"shards_stale"`
	MinShardsReady int `json:"min_shards_ready"`
	// WAL durability facts from each shard's /healthz after settle.
	WALRecordLag  int64  `json:"wal_record_lag"`
	WALByteLag    int64  `json:"wal_byte_lag"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Metrics reconciles the /metrics expositions against the healthz facts
	// above; its Agree verdict is part of the Passed gate.
	Metrics MetricsCheck `json:"metrics_check"`
	// Chaos is each shard proxy's injection counters.
	Chaos []chaos.Stats `json:"chaos,omitempty"`
}

// Scorecard is what a run emits: scenario identity, the deterministic counts
// and estimate scoring, and the timing-dependent ops section.
type Scorecard struct {
	Scenario  string  `json:"scenario"`
	Seed      uint64  `json:"seed"`
	Mechanism string  `json:"mechanism"`
	Domain    int     `json:"domain"`
	Epsilon   float64 `json:"epsilon"`
	Shards    int     `json:"shards"`

	Counts    Counts    `json:"counts"`
	Estimates Estimates `json:"estimates"`
	Ops       Ops       `json:"ops"`
}

// Passed reports the gate CI smoke enforces: exactly-once accounting,
// estimates inside the acceptance envelope, and telemetry that agrees with
// the system it describes.
func (s *Scorecard) Passed() bool {
	return s.Counts.ExactlyOnce && s.Estimates.InEnvelope && s.Ops.Metrics.Agree
}

// DeterministicEqual compares the seed-reproducible sections of two
// scorecards (identity, counts, estimates), ignoring Ops.
func (s *Scorecard) DeterministicEqual(o *Scorecard) bool {
	return s.Scenario == o.Scenario && s.Seed == o.Seed &&
		s.Mechanism == o.Mechanism && s.Domain == o.Domain &&
		s.Epsilon == o.Epsilon && s.Shards == o.Shards &&
		s.Counts == o.Counts && s.Estimates == o.Estimates
}

// scoreEstimates fills the Estimates section from a final estimate vector,
// ground truth, and the mechanism's envelope.
func scoreEstimates(m *Mechanism, est, truth []float64, users float64) (Estimates, error) {
	cellBound, tseBound, err := m.Envelope(truth, users)
	if err != nil {
		return Estimates{}, err
	}
	var e Estimates
	e.CellEnvelope = cellBound
	e.TSEBound = tseBound
	for v := range truth {
		d := est[v] - truth[v]
		e.TSE += d * d
		e.EstimatedTotal += est[v]
		if a := math.Abs(d); a > e.MaxAbsCellError {
			e.MaxAbsCellError = a
		}
	}
	e.InEnvelope = e.MaxAbsCellError <= cellBound && e.TSE <= tseBound
	return e, nil
}
