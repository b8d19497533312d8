package ldp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/postprocess"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Estimator is the one read path of the library: built once from an
// (Aggregator, Workload) pair, it reconstructs workload answers from *any*
// Snapshot of that mechanism — produced by an in-process Collector or
// Server, fetched from a remote ldpserve, or merged across several of them.
// Every method first verifies the snapshot's mechanism identity against the
// estimator's own (digest included), so a snapshot aggregated under a
// different configuration is rejected instead of silently mis-reconstructed.
//
// An Estimator is immutable after construction and safe for concurrent use.
type Estimator struct {
	agg  Aggregator
	work Workload
	info MechanismInfo

	// varOnce lazily prepares the closed-form per-query variance model on
	// first use — for strategy mechanisms that materializes V = W·B, which
	// Answers-only callers should not pay for.
	varOnce sync.Once
	varErr  error
	varW    *linalg.Matrix // materialized workload matrix W, p×n
	varV    *linalg.Matrix // strategy path: V = W·B, p×m
	varPU   float64        // oracle path: per-user per-count variance
	varRow2 []float64      // oracle path: per-query ‖w_i‖²
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

// maxVarianceElems bounds the dense matrices the per-query variance model
// materializes (W, and V = W·B for strategies) to ~½ GiB of float64s.
// Everything else in the library works through the Gram matrix WᵀW exactly
// so that huge implicit workloads (AllRange at large n) stay cheap; the
// per-query variance genuinely needs per-row access, so past this bound it
// returns a clean error instead of an allocation that dwarfs the machine.
const maxVarianceElems = 1 << 26

// prepareVariance builds the mechanism's closed-form per-query variance
// model once. Strategy mechanisms get the exact multinomial form (V = W·B
// materialized); frequency oracles the standard Wang-et-al. per-count
// variance with independent-count propagation through W.
func (e *Estimator) prepareVariance() error {
	e.varOnce.Do(func() {
		dim := e.work.Domain()
		if sl := e.agg.StateLen(); sl > dim {
			dim = sl
		}
		if int64(e.work.Queries())*int64(dim) > maxVarianceElems {
			e.varErr = fmt.Errorf("ldp: workload %s has %d queries — too large to materialize for closed-form per-query variance (limit %d matrix entries); Answers and ConsistentAnswers remain available", e.work.Name(), e.work.Queries(), maxVarianceElems)
			return
		}
		if sa, ok := e.agg.(interface {
			Strategy() *strategy.Strategy
			Recon() *linalg.Matrix
		}); ok {
			e.varW = e.work.Matrix()
			e.varV = linalg.Mul(e.varW, sa.Recon())
			return
		}
		if o, ok := e.agg.(interface{ VariancePerUser() float64 }); ok {
			e.varPU = o.VariancePerUser()
			e.varW = e.work.Matrix()
			e.varRow2 = make([]float64, e.varW.Rows())
			for i := range e.varRow2 {
				row := e.varW.Row(i)
				e.varRow2[i] = linalg.Dot(row, row)
			}
			return
		}
		e.varErr = fmt.Errorf("ldp: aggregator %T exposes no closed-form variance", e.agg)
	})
	return e.varErr
}

// Variance returns the closed-form variance of each unbiased workload answer
// at the snapshot's observed state.
//
// For a strategy mechanism the answer vector is V·y with y multinomial over
// the strategy's outputs, so Var[ŵ_i] = N·(Σ_o π_o V_io² − (V_iᵀπ)²)
// (Theorem 3.4 row-wise); the output distribution π is estimated by the
// observed response histogram y/N, making the plug-in variance
// Σ_o y_o V_io² − (V_iᵀy)²/N. For a frequency oracle each count estimate
// carries the closed-form per-user variance of Wang et al. and counts
// propagate through W as independent terms: Var[ŵ_i] ≈ N·v·‖w_i‖² (exact for
// unary encodings up to the O(f) frequency term, asymptotic for OLH).
func (e *Estimator) Variance(s Snapshot) ([]float64, error) {
	if err := e.Check(s); err != nil {
		return nil, err
	}
	if err := e.prepareVariance(); err != nil {
		return nil, err
	}
	out := make([]float64, e.work.Queries())
	if s.count <= 0 {
		return out, nil
	}
	for i := range out {
		out[i] = e.varianceAt(i, s.state, s.count)
	}
	return out, nil
}

// varianceAt reads query i's closed-form variance from the memoized model.
// Callers must have run prepareVariance successfully and hold count > 0.
func (e *Estimator) varianceAt(i int, state []float64, count float64) float64 {
	if e.varV != nil {
		vi := e.varV.Row(i)
		var lin, dot float64
		for o, y := range state {
			lin += y * vi[o] * vi[o]
			dot += y * vi[o]
		}
		v := lin - dot*dot/count
		if v < 0 {
			v = 0 // round-off guard: a variance is non-negative
		}
		return v
	}
	return count * e.varPU * e.varRow2[i]
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

// rowVariancer computes one query's closed-form variance at a time from the
// workload's per-row view, never materializing W or V = W·B. The strategy
// path replicates linalg's row accumulation exactly (each V element sums over
// k ascending, zero entries of the workload row skipped), so every streamed
// variance is bit-identical to the one the materialized varV path computes.
// A rowVariancer owns its scratch and is single-goroutine; each stream call
// builds its own.
type rowVariancer struct {
	rows  workload.RowAccessor
	recon *linalg.Matrix // strategy path: B (n×m); nil on the oracle path
	varPU float64        // oracle path: per-user per-count variance
	wrow  []float64      // one row of W (n)
	vrow  []float64      // strategy path: one row of V = W·B (m)
}

// newRowVariancer prepares streaming variance, or returns (nil, nil) when the
// workload exposes no per-row view — the caller then falls back to the
// materialized model with its size bound. Every built-in workload family
// implements workload.RowAccessor, so the fallback only triggers for foreign
// Workload implementations.
func (e *Estimator) newRowVariancer() (*rowVariancer, error) {
	ra, ok := e.work.(workload.RowAccessor)
	if !ok {
		return nil, nil
	}
	n := e.work.Domain()
	if sa, ok := e.agg.(interface {
		Strategy() *strategy.Strategy
		Recon() *linalg.Matrix
	}); ok {
		b := sa.Recon()
		return &rowVariancer{rows: ra, recon: b,
			wrow: make([]float64, n), vrow: make([]float64, b.Cols())}, nil
	}
	if o, ok := e.agg.(interface{ VariancePerUser() float64 }); ok {
		return &rowVariancer{rows: ra, varPU: o.VariancePerUser(), wrow: make([]float64, n)}, nil
	}
	return nil, fmt.Errorf("ldp: aggregator %T exposes no closed-form variance", e.agg)
}

// variance returns query i's closed-form variance at the snapshot's state.
func (rv *rowVariancer) variance(i int, state []float64, count float64) float64 {
	rv.rows.QueryRow(i, rv.wrow)
	return rv.varianceFromRow(state, count)
}

// varianceFromRow computes the closed-form variance for the workload row
// already loaded into wrow (callers that inspect the row — the batch row
// cache — fill it via rv.rows.QueryRow first).
func (rv *rowVariancer) varianceFromRow(state []float64, count float64) float64 {
	if rv.recon == nil {
		return count * rv.varPU * linalg.Dot(rv.wrow, rv.wrow)
	}
	// Row i of V = W·B with mulToRows' exact accumulation order: each element
	// sums over k ascending, skipping zero workload entries.
	clear(rv.vrow)
	for k, av := range rv.wrow {
		if av == 0 {
			continue
		}
		brow := rv.recon.Row(k)
		for j, bv := range brow {
			rv.vrow[j] += av * bv
		}
	}
	var lin, dot float64
	for o, y := range state {
		lin += y * rv.vrow[o] * rv.vrow[o]
		dot += y * rv.vrow[o]
	}
	v := lin - dot*dot/count
	if v < 0 {
		v = 0 // round-off guard: a variance is non-negative
	}
	return v
}

// VarianceStream streams the closed-form variance of each workload answer in
// query order, calling fn(i, variance) per query until fn returns false or
// the workload is exhausted. Unlike Variance it materializes nothing of size
// p×n — one workload row at a time is reconstructed through the workload's
// per-row view — so it answers workloads past the maxVarianceElems bound.
// Each streamed value is bit-identical to the corresponding Variance entry.
func (e *Estimator) VarianceStream(s Snapshot, fn func(i int, v float64) bool) error {
	if err := e.Check(s); err != nil {
		return err
	}
	rv, err := e.newRowVariancer()
	if err != nil {
		return err
	}
	if rv == nil {
		vars, err := e.Variance(s)
		if err != nil {
			return err
		}
		for i, v := range vars {
			if !fn(i, v) {
				return nil
			}
		}
		return nil
	}
	p := e.work.Queries()
	if s.count <= 0 {
		for i := 0; i < p; i++ {
			if !fn(i, 0) {
				return nil
			}
		}
		return nil
	}
	for i := 0; i < p; i++ {
		if !fn(i, rv.variance(i, s.state, s.count)) {
			return nil
		}
	}
	return nil
}

// AnswerStream streams the full read path — unbiased answer, closed-form
// variance, and the confidence interval at the given two-sided level — one
// query row at a time, calling fn per row in query order until fn returns
// false or the workload is exhausted. The answers are the same values (bit
// for bit) Answers returns; the variances are streamed through the
// workload's per-row view, so a workload whose variance materialization
// exceeds the maxVarianceElems bound streams fine.
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
// variance (Variance). The normal approximation is justified by the CLT:
// every answer is a sum of N independent per-user contributions.
func (e *Estimator) ConfidenceIntervals(s Snapshot, level float64) ([]Interval, error) {
	if math.IsNaN(level) || level <= 0 || level >= 1 {
		return nil, fmt.Errorf("ldp: confidence level %v outside (0, 1)", level)
	}
	answers, err := e.Answers(s)
	if err != nil {
		return nil, err
	}
	vars, err := e.Variance(s)
	if err != nil {
		return nil, err
	}
	z := math.Sqrt2 * math.Erfinv(level)
	out := make([]Interval, len(answers))
	for i, a := range answers {
		half := z * math.Sqrt(vars[i])
		out[i] = Interval{Low: a - half, High: a + half}
	}
	return out, nil
}
