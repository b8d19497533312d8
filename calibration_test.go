package ldp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// The served variance is calibrated: it is the variance the answers really
// have, so a 95% interval covers the truth 95% of the time. Each cell of the
// grid — {randomized response as a strategy, OUE, OLH, RAPPOR} × ε ∈ {1, 4} ×
// {heavy, near-uniform data} — runs the protocol over one fixed population
// calTrials times and reads every run as POST /query does (AnswerStream at
// the 95% level); one more cell reads OUE through a Snapshot.Diff window, as
// ldpquery -window does. On Histogram cells 0 and n−1 and Prefix row 3:
//
//   - ratio: the answers' mean squared error around the truth ÷ the mean
//     served variance lies in [0.8, 1.25];
//   - coverage: the share of runs whose interval covers the truth lies
//     within calZ binomial standard errors of 0.95.
//
// OLH's served variance omits the (negative) covariance its pairwise hash
// family leaves between two counts, so its rows of more than one cell are
// checked one-sided: ratio ≤ 1.25, coverage at least the lower bound.
//
// The false-alarm budget, stated once: at calTrials = 2000 the ratio's
// standard error is ≈ √(2/2000) = 0.032, so its band sits 6σ below and 8σ
// above 1, and the coverage band sits calZ = 4.5σ either side of 0.95 — with
// 51 rows, a correct form fails at a random seed with probability < 10⁻³.
// The seeds are fixed, so a run is deterministic.
func TestConfidenceIntervalCoverage(t *testing.T) {
	const n, calZ = 8, 4.5
	covSE := math.Sqrt(calLevel * (1 - calLevel) / calTrials)
	covLo, covHi := calLevel-calZ*covSE, calLevel+calZ*covSE

	heavy := []float64{500, 72, 72, 72, 71, 71, 71, 71} // half on type 0, the rest spread evenly
	uniform := make([]float64, n)                       // each user's type drawn uniformly, once
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < calUsers; i++ {
		uniform[rng.Intn(n)]++
	}
	rows := []calRow{{ldp.Histogram(n), 0, 1}, {ldp.Histogram(n), n - 1, 1}, {ldp.Prefix(n), 3, 4}}
	seed := int64(100)
	for _, mech := range []string{"strategy", "OUE", "OLH", "RAPPOR"} {
		t.Run(mech, func(t *testing.T) {
			for _, c := range []struct {
				eps    float64
				data   string
				x      []float64
				window bool
			}{
				{1, "heavy", heavy, false}, {1, "uniform", uniform, false},
				{4, "heavy", heavy, false}, {4, "uniform", uniform, false},
				{4, "heavy/window", heavy, true},
			} {
				if c.window && mech != "OUE" {
					continue
				}
				seed++
				m := newCalMech(t, mech, n, c.eps)
				t.Run(fmt.Sprintf("eps=%g/%s", c.eps, c.data), func(t *testing.T) {
					for _, s := range m.calibrate(t, rows, c.x, c.window, seed) {
						oneSided := mech == "OLH" && s.row.cells > 1
						t.Logf("%s row %d: empirical ÷ served %.3f, coverage %.3f", s.row.w.Name(), s.row.i, s.ratio, s.coverage)
						if !(s.ratio <= 1.25) || (!oneSided && !(s.ratio >= 0.8)) {
							t.Errorf("%s row %d: empirical ÷ served variance %.3f outside [0.8, 1.25]", s.row.w.Name(), s.row.i, s.ratio)
						}
						if s.coverage < covLo || (!oneSided && s.coverage > covHi) {
							t.Errorf("%s row %d: 95%% intervals covered the truth %.3f of the time, want [%.3f, %.3f]",
								s.row.w.Name(), s.row.i, s.coverage, covLo, covHi)
						}
					}
				})
			}
		})
	}
}

const (
	calUsers  = 1000
	calTrials = 2000
	calLevel  = 0.95
)

// calRow is one checked row: a workload, a row index, and how many cells the
// row sums.
type calRow struct {
	w     ldp.Workload
	i     int
	cells int
}

// calStat is one row's calibration: empirical ÷ served variance and interval
// coverage.
type calStat struct {
	row             calRow
	ratio, coverage float64
}

// calMech is one mechanism of the calibration grid.
type calMech struct {
	rz  ldp.Randomizer
	agg ldp.Aggregator
}

// newCalMech builds the named mechanism: "strategy" is randomized response
// as a strategy matrix, any other name a frequency oracle.
func newCalMech(t *testing.T, name string, n int, eps float64) calMech {
	t.Helper()
	if name != "strategy" {
		o, err := ldp.OracleByName(name, n, eps)
		if err != nil {
			t.Fatal(err)
		}
		return calMech{o, o}
	}
	s := baselines.RandomizedResponse(n, eps).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	return calMech{rz, agg}
}

// calibrate runs the protocol over population x calTrials times and reads
// each run's rows through AnswerStream. With window set, each run is served
// as the Diff of (a fixed uniform population + the run) against that
// population alone.
func (m calMech) calibrate(t *testing.T, rows []calRow, x []float64, window bool, seed int64) []calStat {
	t.Helper()
	info := ldp.MechanismInfoOf(m.agg)
	ests := make([]*ldp.Estimator, len(rows))
	truth := make([]float64, len(rows))
	for r, q := range rows {
		est, err := ldp.NewEstimator(m.agg, q.w)
		if err != nil {
			t.Fatal(err)
		}
		ests[r], truth[r] = est, q.w.MatVec(x)[q.i]
	}
	rng := rand.New(rand.NewSource(seed))
	older := make([]float64, m.agg.StateLen())
	if window {
		for i := 0; i < calUsers; i++ {
			m.absorb(t, older, rng.Intn(len(x)), rng)
		}
	}
	base := ldp.NewSnapshot(older, calUsers, 1, info)
	sqErr, served := make([]float64, len(rows)), make([]float64, len(rows))
	covered := make([]int, len(rows))
	state := make([]float64, m.agg.StateLen())
	for trial := 0; trial < calTrials; trial++ {
		copy(state, older)
		for u, cnt := range x {
			for j := 0; j < int(cnt); j++ {
				m.absorb(t, state, u, rng)
			}
		}
		snap := ldp.NewSnapshot(state, calUsers, 1, info)
		if window {
			var err error
			if snap, err = ldp.NewSnapshot(state, 2*calUsers, 2, info).Diff(base); err != nil {
				t.Fatal(err)
			}
		}
		for r, q := range rows {
			if err := ests[r].AnswerStream(snap, calLevel, func(a ldp.QueryAnswer) bool {
				if a.Index < q.i {
					return true
				}
				d := a.Answer - truth[r]
				sqErr[r] += d * d
				served[r] += a.Variance
				if a.CI.Low <= truth[r] && truth[r] <= a.CI.High {
					covered[r]++
				}
				return false
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make([]calStat, len(rows))
	for r, q := range rows {
		out[r] = calStat{q, sqErr[r] / served[r], float64(covered[r]) / calTrials}
	}
	return out
}

// absorb randomizes one report of type u and adds it to state.
func (m calMech) absorb(t *testing.T, state []float64, u int, rng *rand.Rand) {
	rep, err := m.rz.Randomize(u, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.agg.Absorb(state, rep); err != nil {
		t.Fatal(err)
	}
}
