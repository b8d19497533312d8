package loadgen

import (
	"math"

	ldp "repro"
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
// acceptance envelope (Score). Deterministic at a fixed seed.
type Estimates struct {
	// CellError and CellEnvelope are the worst cell's absolute error and
	// bound: the cell whose error takes the largest share of its own bound.
	CellError      float64 `json:"cell_error"`
	CellEnvelope   float64 `json:"cell_envelope"`
	TSE            float64 `json:"tse"`
	TSEBound       float64 `json:"tse_bound"`
	EstimatedTotal float64 `json:"estimated_total"`
	TotalBound     float64 `json:"total_bound"`
	InEnvelope     bool    `json:"in_envelope"`
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

// The envelope's margins: zSigma standard deviations per cell and on the
// total, and tseSlack times the expected total squared error — a Markov
// margin. A mechanism regression moves estimates by O(N) and overshoots them
// by orders of magnitude.
const zSigma, tseSlack = 6.0, 4.0

// Score holds the histogram estimate x̂ of agg at snap to the acceptance
// envelope around the ground truth, with σ_v² the variance
// Estimator.Variance serves for cell v at snap: every cell within zSigma·σ_v
// of its truth, the total squared error within tseSlack·Σσ_v², and the
// estimated total within zSigma·√Σσ_v² of the true one (Σσ_v² bounds the
// total's variance: a strategy's total is exact, the unary encodings' cells
// are independent, OLH's covary negatively).
func Score(agg ldp.Aggregator, snap ldp.Snapshot, truth []float64) (Estimates, error) {
	est, err := ldp.NewEstimator(agg, ldp.Histogram(agg.Domain()))
	if err != nil {
		return Estimates{}, err
	}
	xhat, err := est.Answers(snap)
	if err != nil {
		return Estimates{}, err
	}
	vars, err := est.Variance(snap)
	if err != nil {
		return Estimates{}, err
	}
	var e Estimates
	var total, sumVar float64
	inCells := true
	for v, x := range truth {
		d, bound := math.Abs(xhat[v]-x), zSigma*math.Sqrt(vars[v])
		inCells = inCells && d <= bound
		if v == 0 || d*e.CellEnvelope > e.CellError*bound {
			e.CellError, e.CellEnvelope = d, bound
		}
		e.TSE += d * d
		e.EstimatedTotal += xhat[v]
		total += x
		sumVar += vars[v]
	}
	e.TSEBound = tseSlack * sumVar
	e.TotalBound = zSigma * math.Sqrt(sumVar)
	e.InEnvelope = inCells && e.TSE <= e.TSEBound && math.Abs(e.EstimatedTotal-total) <= e.TotalBound
	return e, nil
}
