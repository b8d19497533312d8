package ldp

import (
	"fmt"
	"math"
)

// Windowed estimation: every read-path method works on any Snapshot, and
// Snapshot.Diff of two snapshots from the same timeline IS a snapshot of the
// reports that arrived between them (accumulators are integer-valued sums, so
// the subtraction is exact). A window's estimate is Diff, then any Estimator
// read; the trend detector here runs that idiom across a retained epoch
// ladder.

// WindowStat describes one window (From, To] of a trend scan: its epoch
// bounds, the report count that arrived in it, and the clamped, normalized
// frequency profile of those reports (zero when the window is empty).
type WindowStat struct {
	FromEpoch, ToEpoch uint64
	Count              float64
	Freq               []float64
}

// TrendPoint compares two consecutive windows of a trend scan: the previous
// window (From, Mid] against the current one (Mid, To].
type TrendPoint struct {
	// From, Mid, To are the epochs bounding the two windows.
	From, Mid, To uint64
	// PrevCount and CurCount are the windows' report counts.
	PrevCount, CurCount float64
	// Rate is the per-cell rate of change of the frequency profile per epoch:
	// (freqCur[i] − freqPrev[i]) / (To − Mid).
	Rate []float64
	// LInf is the L∞ drift between the two profiles, max_i |p_i − q_i|;
	// TV is the total-variation drift, ½·Σ_i |p_i − q_i|. Both are 0 for
	// identical distributions and 1 for disjoint ones.
	LInf, TV float64
}

// Trend is the detector's output over a retained epoch ladder.
type Trend struct {
	// Windows are the consecutive-snapshot windows, oldest first.
	Windows []WindowStat
	// Points compare consecutive windows (len(Windows)−1 entries).
	Points []TrendPoint
	// MaxTV is the largest total-variation drift across Points — the one-number
	// "did the distribution move" score an alert thresholds on.
	MaxTV float64
}

// windowFreq reduces one window snapshot to a frequency profile: the unbiased
// data estimate, clamped non-negative and normalized to sum 1. Noise makes
// individual cells of a small window swing negative; clamping before
// normalizing keeps the profile a distribution so the L∞/TV drift scores mean
// what they say.
func (e *Estimator) windowFreq(d Snapshot) ([]float64, error) {
	x, err := e.DataEstimate(d)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for i, v := range x {
		if v < 0 || math.IsNaN(v) {
			x[i] = 0
			continue
		}
		total += v
	}
	if total > 0 {
		for i := range x {
			x[i] /= total
		}
	}
	return x, nil
}

// Trend runs the drift detector over a ladder of snapshots from one timeline,
// epoch-ascending — typically the retained history (Collector.SnapAt over
// RetainedEpochs, or Fleet.SnapAt over a chosen grid) with the live Snap as
// the final rung. Consecutive rungs become windows, each window is reduced to
// a frequency profile, and consecutive windows are compared: the per-cell
// rate of change says which cells are moving, the L∞/TV scores say how much
// the distribution as a whole moved. Rungs that add no epochs or no reports
// are skipped (an empty window has no distribution to compare); a rung with
// fewer reports than the one before is an error (Diff refuses the count
// inversion). At least two windows — three effective rungs — are needed for
// one TrendPoint.
func (e *Estimator) Trend(ladder []Snapshot) (Trend, error) {
	var tr Trend
	if len(ladder) < 2 {
		return tr, fmt.Errorf("ldp: trend needs at least 2 snapshots, got %d", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Epoch() < ladder[i-1].Epoch() {
			return tr, fmt.Errorf("ldp: trend ladder out of order at %d: epoch %d after %d", i, ladder[i].Epoch(), ladder[i-1].Epoch())
		}
	}
	prev := ladder[0]
	for _, s := range ladder[1:] {
		if s.Epoch() == prev.Epoch() {
			continue // no epochs advanced: zero-width rung
		}
		d, err := s.Diff(prev)
		if err != nil {
			return Trend{}, err
		}
		if d.Count() <= 0 {
			prev = s // empty window: skip it, the next window starts here
			continue
		}
		freq, err := e.windowFreq(d)
		if err != nil {
			return Trend{}, err
		}
		tr.Windows = append(tr.Windows, WindowStat{
			FromEpoch: prev.Epoch(), ToEpoch: s.Epoch(), Count: d.Count(), Freq: freq,
		})
		prev = s
	}
	for i := 1; i < len(tr.Windows); i++ {
		p, c := tr.Windows[i-1], tr.Windows[i]
		dEpoch := float64(c.ToEpoch - c.FromEpoch)
		pt := TrendPoint{
			From: p.FromEpoch, Mid: c.FromEpoch, To: c.ToEpoch,
			PrevCount: p.Count, CurCount: c.Count,
			Rate: make([]float64, len(c.Freq)),
		}
		for j := range c.Freq {
			diff := c.Freq[j] - p.Freq[j]
			pt.Rate[j] = diff / dEpoch
			if a := math.Abs(diff); a > pt.LInf {
				pt.LInf = a
			}
			pt.TV += math.Abs(diff)
		}
		pt.TV /= 2
		if pt.TV > tr.MaxTV {
			tr.MaxTV = pt.TV
		}
		tr.Points = append(tr.Points, pt)
	}
	return tr, nil
}
