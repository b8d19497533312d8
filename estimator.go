package ldp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unsafe"

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
// mechanism, through the one identity door (admit).
func (e *Estimator) Check(s Snapshot) error {
	_, err := admit("snapshot", e.info, e.agg.StateLen(), s.info, len(s.state))
	return err
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
// the workload, and the only place per-query variance is computed. It has one
// form for every mechanism,
//
//	Var[wᵀx̂] = wᵀ·Ĉov(x̂)·w,
//
// with Ĉov the covariance of the data estimate x̂, plugged in at the
// snapshot's own x̂.
//
// For a strategy mechanism x̂ = B·y, and a user of type u adds one column of
// the response histogram y drawn from Q's column u. Theorem 3.4 per type,
// summed over the users, is Cov(x̂) = Σ_u x_u·(B·diag(Q_u)·Bᵀ − B·Q_u·Q_uᵀ·Bᵀ),
// and where BQ = I the second term is diag(x). Both terms are linear in the
// per-type counts, so replacing x_u·Q_u by the observed y and x by x̂ gives
// the unbiased plug-in
//
//	Ĉov = M − diag(x̂),  M = B·diag(y)·Bᵀ,
//
// which needs only n×n state however many rows the workload has. For a
// frequency oracle the form is Ĉov's diagonal alone: c_j = CountVariance(x̂_j,
// N) = (x̂_j·p(1−p) + (N − x̂_j)·q(1−q))/(p − q)². That is exact for the unary
// encodings, whose bits are flipped independently, so two counts never
// covary; OLH's pairwise hash family leaves a (negative) covariance between
// two counts that the diagonal does not model, so on rows of several cells
// its variance is conservative. A plug-in can come out
// negative where the exact variance is near 0 (the whole-domain row of a
// strategy, whose answer is the report count) or x̂ is far off; it is served
// as 0.
//
// A row arrives with the span [lo, hi) of its non-zeros, as its QueryRow
// reported it, and nothing outside the span is read: a row costs its span,
// not the domain. The oracle path reads the diagonal c and nothing else. Two
// tiers serve the strategy path. A row with one non-zero w_j reads the
// diagonal entry M_jj − x̂_j, with M_jj computed on demand (Histogram: O(n·m),
// and the n×n M is never allocated). The first row with two or more
// non-zeros fills all of M once: row j of the upper triangle is one
// vector–matrix pass over Bᵀ with coefficients c_o = y_o·B_jo (linalg's
// MulVecTTo), rows fanned out over workers in blocks of equal area, each row
// then mirrored into the lower triangle, and Ĉov's diagonal M_jj − x̂_j copied
// out once into a contiguous n-vector. Such a row's variance is
//
//	Σ_j w_j·(w_j·Ĉov_jj + 2·d_j),  d_j = Σ_{k>j} w_k·M_jk,
//
// and the tail sums d_j are carried from one row to the next when the new
// row has the same first non-zero as the last and repeats its entries up to
// where the last one ended (Prefix's rows, and AllRange's within one start):
// only the new columns are added to the carried sums. The repeat test
// compares the overlap's bytes, which is stricter than comparing values only
// in the sign of a zero, and a refused carry costs time, not bits. Any other
// row starts its sums from zero.
//
// No bit moves against the direct form — M_jk = Σ_o y_o·B_jo·B_ko
// accumulated entry by entry, x̂ = B·y row by row, each row's tail sums as
// dot products from the first column: the same products (y_o·B_jo first,
// then ·B_ko — a lower-row fill would round (y_o·B_ko)·B_jo instead, which is
// why the upper rows are filled and mirrored), the same association, the
// same ascending order of each sum. A carried sum stops where the last row's
// sum stopped and goes on over the same entries the full sum would add. Zero
// terms are skipped, not added; an accumulator that starts at +0 is never
// −0, so adding ±0 leaves it as it was. The variance reads x̂ and not the
// answers, so no answer moves with it. The carried state makes a
// varianceForm single-goroutine state: every read builds its own.
type varianceForm struct {
	reconT *linalg.Matrix // strategy path: Bᵀ (m×n); nil on the oracle path
	y      []float64      // strategy path: the response histogram (snapshot state)
	x      []float64      // strategy path: x̂ = B·y
	m      []float64      // strategy path: M row-major n×n; nil until a row has two non-zeros
	cdiag  []float64      // Ĉov's diagonal: the oracle's c from the start, M_jj − x̂_j after the fill

	// The carried sums of the last row with two or more non-zeros, whose
	// non-zeros span [lo, hi) with entries prev[lo:hi]: tail[j] = d_j for j
	// in [lo, hi).
	lo, hi     int
	prev, tail []float64
}

// newVarianceForm prepares the variance form of agg at snapshot s, which the
// caller has already Checked against the mechanism.
func newVarianceForm(agg Aggregator, s Snapshot) (*varianceForm, error) {
	switch a := agg.(type) {
	case interface{ ReconT() *linalg.Matrix }:
		return &varianceForm{reconT: a.ReconT(), y: s.state, x: agg.EstimateCounts(s.state, s.count)}, nil
	case FrequencyOracle:
		c := agg.EstimateCounts(s.state, s.count)
		for j, xj := range c {
			c[j] = a.CountVariance(xj, s.count)
		}
		return &varianceForm{cdiag: c}, nil
	}
	return nil, fmt.Errorf("ldp: aggregator %T exposes no closed-form variance", agg)
}

// of returns the variance of the answer to one query row w (length n) whose
// non-zeros span [lo, hi), as the row's QueryRow reported: nothing outside the
// span is read.
func (f *varianceForm) of(w []float64, lo, hi int) float64 {
	var v float64
	switch {
	case f.reconT == nil: // no off-diagonal
		for j, wj := range w[lo:hi] {
			v += wj * (wj * f.cdiag[lo+j])
		}
	case hi-lo == 1:
		v = w[lo] * (w[lo] * f.diag(lo)) // d_j = 0
	case hi-lo > 1:
		v = f.span(w, lo, hi)
	}
	if v < 0 {
		v = 0 // a negative plug-in (see varianceForm) is served as 0
	}
	return v
}

// diag returns Ĉov_jj = Σ_o y_o·B_jo·B_jo − x̂_j on the strategy path.
func (f *varianceForm) diag(j int) float64 {
	if f.cdiag != nil {
		return f.cdiag[j]
	}
	n := f.reconT.Cols()
	bt := f.reconT.Data()
	var s float64
	for o, y := range f.y {
		b := bt[o*n+j]
		s += y * b * b
	}
	return s - f.x[j]
}

// span returns Σ_j w_j·(w_j·Ĉov_jj + 2·d_j) for a row whose non-zeros span
// [lo, hi), hi−lo ≥ 2, carrying the last such row's tail sums when the row
// extends it.
func (f *varianceForm) span(w []float64, lo, hi int) (v float64) {
	n := len(w)
	if f.m == nil {
		f.fill()
		f.prev, f.tail = make([]float64, n), make([]float64, n)
	}
	// The last row ends in a non-zero, so equal entries up to its end mean
	// this row reaches at least as far. Equal bits are equal entries (a ±0
	// mismatch only refuses a carry the values would allow).
	from := lo
	if lo == f.lo && bytes.Equal(bitsOf(w[lo:f.hi]), bitsOf(f.prev[lo:f.hi])) {
		from = f.hi
	}
	clear(f.tail[from:hi])
	for k := from; k < hi; k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		// Column k of the upper triangle, read as row k of the mirror.
		t := f.tail[lo:k]
		for i, mjk := range f.m[k*n+lo : k*n+k] {
			t[i] += wk * mjk
		}
	}
	cjj, tail := f.cdiag[lo:hi], f.tail[lo:hi]
	for j, wj := range w[lo:hi] {
		if wj != 0 {
			v += wj * (wj*cjj[j] + 2*tail[j])
		}
	}
	copy(f.prev[from:hi], w[from:hi])
	f.lo, f.hi = lo, hi
	return v
}

// bitsOf views x's float64s as their bytes, for one memory compare.
func bitsOf(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 8*len(x))
}

// fill computes M = B·diag(y)·Bᵀ: row j's upper part M_jk (k ≥ j) is the
// vector–matrix pass Σ_o c_o·Bᵀ_ok with c_o = y_o·B_jo, then mirrored into
// column j. Row j costs n−j, so the rows are cut into blocks of equal area;
// each entry is one fixed-order sum whichever worker computes it.
func (f *varianceForm) fill() {
	bt := f.reconT.Data()
	n, outputs := f.reconT.Cols(), f.reconT.Rows()
	f.m = make([]float64, n*n)
	blocks := linalg.MaxWorkers()
	first := func(b int) int { // first row of block b
		return n - int(math.Round(float64(n)*math.Sqrt(float64(blocks-b)/float64(blocks))))
	}
	linalg.ParallelRange(blocks, n*(n+1)/2*outputs, func(_, lo, hi int) {
		c := make([]float64, outputs)
		for j := first(lo); j < first(hi); j++ {
			for o, y := range f.y {
				c[o] = y * bt[o*n+j]
			}
			f.reconT.MulVecTTo(f.m[j*n+j:j*n+n], c, j)
			for k := j + 1; k < n; k++ {
				f.m[k*n+j] = f.m[j*n+k]
			}
		}
	})
	f.cdiag = make([]float64, n)
	for j := range f.cdiag {
		f.cdiag[j] = f.m[j*n+j] - f.x[j]
	}
}

// each streams the variance of every query of w in row order until fn returns
// false.
func (f *varianceForm) each(w Workload, fn func(i int, v float64) bool) {
	wrow := make([]float64, w.Domain())
	for i, p := 0, w.Queries(); i < p; i++ {
		lo, hi := w.QueryRow(i, wrow)
		if !fn(i, f.of(wrow, lo, hi)) {
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
// false or the workload is exhausted. Level 0 asks for no interval: the rows
// carry a zero CI. The answers are the same values (bit for bit) Answers
// returns, the variances the ones VarianceStream yields.
func (e *Estimator) AnswerStream(s Snapshot, level float64, fn func(QueryAnswer) bool) error {
	if level != 0 {
		if err := checkLevel(level); err != nil {
			return err
		}
	}
	answers, err := e.Answers(s)
	if err != nil {
		return err
	}
	z := math.Sqrt2 * math.Erfinv(level)
	return e.VarianceStream(s, func(i int, v float64) bool {
		qa := QueryAnswer{Index: i, Answer: answers[i], Variance: v}
		if level != 0 {
			half := z * math.Sqrt(v)
			qa.CI = Interval{Low: qa.Answer - half, High: qa.Answer + half}
		}
		return fn(qa)
	})
}

// checkLevel refuses a two-sided confidence level outside (0, 1).
func checkLevel(level float64) error {
	if math.IsNaN(level) || level <= 0 || level >= 1 {
		return fmt.Errorf("ldp: confidence level %v outside (0, 1)", level)
	}
	return nil
}

// ConfidenceIntervals returns per-query normal-approximation confidence
// intervals at the given two-sided level (e.g. 0.95), centered on the
// unbiased answers with half-width z·σ from the mechanism's closed-form
// variance: the CI column of AnswerStream. The normal approximation is
// justified by the CLT: every answer is a sum of N independent per-user
// contributions.
func (e *Estimator) ConfidenceIntervals(s Snapshot, level float64) ([]Interval, error) {
	if err := checkLevel(level); err != nil {
		return nil, err
	}
	out := make([]Interval, 0, e.work.Queries())
	if err := e.AnswerStream(s, level, func(a QueryAnswer) bool { out = append(out, a.CI); return true }); err != nil {
		return nil, err
	}
	return out, nil
}
