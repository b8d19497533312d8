package ldp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/postprocess"
)

// Estimator is the one read path of the library: built once from an
// (Aggregator, Workload) pair, it reconstructs workload answers from *any*
// Snapshot of that mechanism — produced by an in-process Collector, fetched
// from a remote ldpserve, or merged across several of them.
// Every method first verifies the snapshot's mechanism identity against the
// estimator's own (digest included), so a snapshot aggregated under a
// different configuration is rejected instead of silently mis-reconstructed.
//
// An Estimator is immutable after construction and safe for concurrent use.
type Estimator struct {
	agg  Aggregator
	work Workload
	info MechanismInfo
}

// NewEstimator prepares the read path for a mechanism aggregator and a
// workload over the same domain.
func NewEstimator(agg Aggregator, w Workload) (*Estimator, error) {
	info, err := checkedInfo(agg, w)
	if err != nil {
		return nil, err
	}
	return &Estimator{agg: agg, work: w, info: info}, nil
}

// checkedInfo validates a mechanism/workload pairing — the one precondition
// every collector and estimator constructor shares — and returns the
// mechanism's identity.
func checkedInfo(agg Aggregator, w Workload) (MechanismInfo, error) {
	if agg == nil {
		return MechanismInfo{}, errors.New("ldp: nil aggregator")
	}
	if agg.Domain() != w.Domain() {
		return MechanismInfo{}, fmt.Errorf("ldp: mechanism domain %d != workload domain %d", agg.Domain(), w.Domain())
	}
	return MechanismInfoOf(agg), nil
}

// Workload returns the workload the estimator answers.
func (e *Estimator) Workload() Workload { return e.work }

// Info returns the identity of the mechanism the estimator reconstructs for.
func (e *Estimator) Info() MechanismInfo { return e.info }

// Check verifies that a snapshot was aggregated under this estimator's
// mechanism: the accumulator width must match exactly, and every identity
// field both sides declare (mechanism, domain, ε, digest) must agree.
func (e *Estimator) Check(s Snapshot) error {
	if s.StateLen() != e.agg.StateLen() {
		return fmt.Errorf("ldp: snapshot has %d state entries, mechanism expects %d — mechanism mismatch", s.StateLen(), e.agg.StateLen())
	}
	if err := infoMismatch(e.info, s.info); err != nil {
		return fmt.Errorf("ldp: snapshot aggregated under a different mechanism configuration: %w", err)
	}
	return nil
}

// DataEstimate returns the unbiased estimate of the data vector from a
// snapshot (B·y for strategy mechanisms, the channel-inverted histogram for
// oracles).
func (e *Estimator) DataEstimate(s Snapshot) ([]float64, error) {
	if err := e.Check(s); err != nil {
		return nil, err
	}
	return e.agg.EstimateCounts(s.state, s.count), nil
}

// Answers returns the unbiased workload answer estimates W·x̂ from a
// snapshot.
func (e *Estimator) Answers(s Snapshot) ([]float64, error) {
	xh, err := e.DataEstimate(s)
	if err != nil {
		return nil, err
	}
	return e.work.MatVec(xh), nil
}

// ConsistentAnswers returns WNNLS-post-processed workload answers (Appendix
// A) from a snapshot: the answers of the non-negative data vector closest to
// the unbiased estimate, rescaled to the snapshot's known report count.
// Post-processing never weakens the privacy guarantee.
func (e *Estimator) ConsistentAnswers(s Snapshot) ([]float64, error) {
	answers, err := e.Answers(s)
	if err != nil {
		return nil, err
	}
	res, err := postprocess.Run(e.work, answers, postprocess.Options{TotalCount: s.count})
	if err != nil {
		return nil, err
	}
	return res.Answers, nil
}

// varianceForm is the closed-form variance of any linear query at one
// snapshot of one mechanism — built per (mechanism, snapshot), independent of
// the workload, and the only place per-query variance is computed.
//
// For a strategy mechanism the answer to query w is wᵀB·y with y multinomial
// over the strategy's outputs, so Var[ŵ] = N·(Σ_o π_o V_o² − (Vᵀπ)²) with
// V = wᵀB (Theorem 3.4 row-wise). Estimating the output distribution π by the
// observed response histogram y/N and expanding V gives the plug-in form
//
//	Var[ŵ] = wᵀM·w − (wᵀu)²/N,  M = B·diag(y)·Bᵀ,  u = B·y,
//
// which needs only n×n state however many rows the workload has. For a
// frequency oracle each count estimate carries the closed-form per-user
// variance v of Wang et al. and counts propagate through w as independent
// terms: Var[ŵ] ≈ N·v·‖w‖² (exact for unary encodings up to the O(f)
// frequency term, asymptotic for OLH).
//
// M is symmetric; only its upper triangle is stored, and row j is filled
// left to right only as far as some query's non-zero span has reached, so a
// read pays for the part of M its rows touch (Histogram: the diagonal,
// O(n·m)) rather than the O(n²·m) full build. The fill makes a varianceForm
// single-goroutine state: every read builds its own.
type varianceForm struct {
	count float64
	varPU float64        // oracle path: per-user per-count variance
	recon *linalg.Matrix // strategy path: B (n×m); nil on the oracle path
	y     []float64      // strategy path: the response histogram (snapshot state)
	u     []float64      // strategy path: B·y
	m     []float64      // strategy path: M row-major n×n, entries k ≥ j of row j
	reach []int          // strategy path: row j of M is filled on [j, reach[j])
}

// newVarianceForm prepares the variance form of agg at snapshot s, which the
// caller has already Checked against the mechanism.
func newVarianceForm(agg Aggregator, s Snapshot) (*varianceForm, error) {
	f := &varianceForm{count: s.count}
	switch a := agg.(type) {
	case interface{ Recon() *linalg.Matrix }:
		n := agg.Domain()
		f.recon, f.y = a.Recon(), s.state
		f.u = f.recon.MulVec(s.state)
		f.m = make([]float64, n*n)
		f.reach = make([]int, n)
	case interface{ VariancePerUser() float64 }:
		f.varPU = a.VariancePerUser()
	default:
		return nil, fmt.Errorf("ldp: aggregator %T exposes no closed-form variance", agg)
	}
	return f, nil
}

// of returns the variance of the answer to one query row w (length n).
func (f *varianceForm) of(w []float64) float64 {
	if f.count <= 0 {
		return 0
	}
	if f.recon == nil {
		return f.count * f.varPU * linalg.Dot(w, w)
	}
	n, hi := len(w), len(w)
	for hi > 0 && w[hi-1] == 0 {
		hi--
	}
	var quad float64
	for j, wj := range w[:hi] {
		if wj == 0 {
			continue
		}
		row := f.m[j*n : j*n+hi]
		if f.reach[j] < hi {
			f.fill(j, row, max(f.reach[j], j))
			f.reach[j] = hi
		}
		quad += wj * (wj*row[j] + 2*linalg.Dot(w[j+1:hi], row[j+1:]))
	}
	lin := linalg.Dot(w[:hi], f.u[:hi])
	v := quad - lin*lin/f.count
	if v < 0 {
		v = 0 // round-off guard: a variance is non-negative
	}
	return v
}

// fill computes row[k] = M_jk = Σ_o y_o·B_jo·B_ko for k in [from, len(row)).
// Each entry is a fixed-order sum of its own, so its bits do not depend on
// which query first reached it.
func (f *varianceForm) fill(j int, row []float64, from int) {
	bj := f.recon.Row(j)[:len(f.y)]
	for k := from; k < len(row); k++ {
		bk := f.recon.Row(k)[:len(f.y)]
		var s float64
		for o, y := range f.y {
			s += y * bj[o] * bk[o]
		}
		row[k] = s
	}
}

// each streams the variance of every query of w in row order until fn returns
// false.
func (f *varianceForm) each(w Workload, fn func(i int, v float64) bool) {
	wrow := make([]float64, w.Domain())
	for i, p := 0, w.Queries(); i < p; i++ {
		w.QueryRow(i, wrow)
		if !fn(i, f.of(wrow)) {
			return
		}
	}
}

// Variance returns the closed-form variance of each unbiased workload answer
// at the snapshot's observed state: VarianceStream collected into a slice.
func (e *Estimator) Variance(s Snapshot) ([]float64, error) {
	out := make([]float64, e.work.Queries())
	if err := e.VarianceStream(s, func(i int, v float64) bool { out[i] = v; return true }); err != nil {
		return nil, err
	}
	return out, nil
}

// Interval is one two-sided confidence interval [Low, High].
type Interval struct {
	Low, High float64
}

// QueryAnswer is one streamed row of the read path: the query's index in the
// workload's row order, its unbiased answer, the closed-form variance of that
// answer, and the confidence interval at the stream's level.
type QueryAnswer struct {
	Index    int
	Answer   float64
	Variance float64
	CI       Interval
}

// VarianceStream streams the closed-form variance of each workload answer
// (see varianceForm) in query order, calling fn(i, variance) per query until
// fn returns false or the workload is exhausted. Nothing it holds scales with
// the number of queries: one workload row at a time passes through the n×n
// variance form.
func (e *Estimator) VarianceStream(s Snapshot, fn func(i int, v float64) bool) error {
	if err := e.Check(s); err != nil {
		return err
	}
	f, err := newVarianceForm(e.agg, s)
	if err != nil {
		return err
	}
	f.each(e.work, fn)
	return nil
}

// AnswerStream streams the full read path — unbiased answer, closed-form
// variance, and the confidence interval at the given two-sided level — one
// query row at a time, calling fn per row in query order until fn returns
// false or the workload is exhausted. The answers are the same values (bit
// for bit) Answers returns, the variances the ones VarianceStream yields.
func (e *Estimator) AnswerStream(s Snapshot, level float64, fn func(QueryAnswer) bool) error {
	if math.IsNaN(level) || level <= 0 || level >= 1 {
		return fmt.Errorf("ldp: confidence level %v outside (0, 1)", level)
	}
	answers, err := e.Answers(s)
	if err != nil {
		return err
	}
	z := math.Sqrt2 * math.Erfinv(level)
	return e.VarianceStream(s, func(i int, v float64) bool {
		half := z * math.Sqrt(v)
		a := answers[i]
		return fn(QueryAnswer{Index: i, Answer: a, Variance: v, CI: Interval{Low: a - half, High: a + half}})
	})
}

// ConfidenceIntervals returns per-query normal-approximation confidence
// intervals at the given two-sided level (e.g. 0.95), centered on the
// unbiased answers with half-width z·σ from the mechanism's closed-form
// variance: the CI column of AnswerStream. The normal approximation is
// justified by the CLT: every answer is a sum of N independent per-user
// contributions.
func (e *Estimator) ConfidenceIntervals(s Snapshot, level float64) ([]Interval, error) {
	out := make([]Interval, 0, e.work.Queries())
	if err := e.AnswerStream(s, level, func(a QueryAnswer) bool { out = append(out, a.CI); return true }); err != nil {
		return nil, err
	}
	return out, nil
}
