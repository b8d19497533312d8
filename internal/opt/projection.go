// Package opt provides the numerical-optimization substrate: the projection
// onto the bounded probability simplex (Algorithm 1 of the paper), utilities
// for projected gradient methods, a power-iteration spectral-norm estimator,
// and an accelerated projected-gradient non-negative least squares solver used
// by the WNNLS post-processing step (Appendix A).
//
// The projection is the optimizer's per-iteration hot spot: ProjectMatrixInto
// reuses a caller-owned MatrixProjection plus a Scratch of per-worker buffers
// and allocates nothing in steady state (ProjectMatrix is the same call on
// fresh ones). Columns are independent, so they fan out across GOMAXPROCS
// goroutines; results are bit-identical at any worker count.
package opt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ClipState records, per coordinate, how the simplex projection resolved it.
// It is consumed by the ∇z back-propagation in internal/core.
type ClipState int8

const (
	// ClipLow marks a coordinate clipped at its lower bound z_o.
	ClipLow ClipState = -1
	// Free marks an interior coordinate (value r_o + λ).
	Free ClipState = 0
	// ClipHigh marks a coordinate clipped at its upper bound e^ε·z_o.
	ClipHigh ClipState = 1
)

// ErrInfeasible is returned when the constraint set
// {q : z ≤ q ≤ e^ε z, 1ᵀq = 1} is empty, i.e. Σz > 1 or e^ε Σz < 1.
var ErrInfeasible = errors.New("opt: bounded simplex is empty for the given z and ε")

// The kinks of the piecewise-linear sum f(λ) = Σ clip(r+λ, z, ez) come in two
// families: λ = z_o − r_o where a coordinate becomes free (slope +1) and
// λ = e·z_o − r_o where it clips high (slope −1).

// validateZ checks finiteness, non-negativity and feasibility of the bound
// vector. The first test is written !(v >= 0) because NaN fails every
// comparison — v < 0 and both feasibility checks below included — and a NaN
// bound let through comes back as an all-NaN Q with a nil error.
func validateZ(z []float64, e float64) error {
	sumZ := 0.0
	for o, v := range z {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("opt: z must be finite and non-negative, got z[%d] = %g", o, v)
		}
		sumZ += v
	}
	const tol = 1e-12
	if sumZ > 1+tol || e*sumZ < 1-tol {
		return fmt.Errorf("%w: Σz = %g, e^ε Σz = %g", ErrInfeasible, sumZ, e*sumZ)
	}
	return nil
}

// pivotIn returns a breakpoint of a coordinate (r, z) that lies strictly
// inside (a, b). Every active coordinate has one (that is what active means).
func pivotIn(r, z, e, a, b float64) float64 {
	lo := z - r
	if lo > a && lo < b {
		return lo
	}
	return e*z - r
}

// solveLambda finds the leftmost shift λ with f(λ) = Σ clip(r + λ, z, e·z) = 1
// (Proposition 4.2 / Algorithm 1) by deterministic quickselect-style pivoting
// over the 2m breakpoints — the standard expected-O(m) simplex-projection
// narrowing (no sort): keep an interval (a, b) bracketing the crossing, pick a
// median-of-three breakpoint inside it, evaluate f there in one pass over the
// still-active coordinates, and discard every coordinate whose clip status is
// decided for the whole interval. ar and az are caller-owned scratch of
// length m: the active coordinates' (r, z) pairs live there contiguously and
// retire by stable in-place compaction, so each pass streams two dense
// slices in coordinate order.
//
// Pivots are chosen deterministically from the data, so the result is a pure
// function of (r, z, e) — parallel and serial projections agree bit-for-bit.
func solveLambda(ar, az, r, z []float64, e float64) float64 {
	m := len(r)
	ar, az, z = ar[:m], az[:m], z[:m]
	for o, ro := range r {
		zo := z[o]
		// A non-finite coordinate would never retire (NaN fails every
		// comparison) and would stall the narrowing loop. Bail out with NaN:
		// the caller's projection then yields a NaN column, which the
		// optimizer's blow-up safeguard already handles (the seed's sorted
		// sweep likewise returned garbage for non-finite input, but
		// terminated).
		if lo := zo - ro; math.IsNaN(lo) || math.IsInf(lo, 0) {
			return math.NaN()
		}
		// e*z can overflow for extreme ε even with feasible (bounded) z.
		if hi := e*zo - ro; math.IsNaN(hi) || math.IsInf(hi, 0) {
			return math.NaN()
		}
		ar[o], az[o] = ro, zo
	}
	a, b := math.Inf(-1), math.Inf(1)
	// f(λ) restricted to λ ∈ (a, b) is base + nfree·λ plus the active
	// coordinates' clip terms: base accumulates the decided contributions
	// (z_o for clipped-low, e·z_o for clipped-high, r_o for free).
	base := 0.0
	nfree := 0
	for len(ar) > 0 {
		// Median-of-three deterministic pivot, strictly inside (a, b).
		p := pivotIn(ar[0], az[0], e, a, b)
		if last := len(ar) - 1; last >= 2 {
			p1 := pivotIn(ar[len(ar)/2], az[len(ar)/2], e, a, b)
			p2 := pivotIn(ar[last], az[last], e, a, b)
			// Median of p, p1, p2.
			if p > p1 {
				p, p1 = p1, p
			}
			if p1 > p2 {
				p1 = p2
			}
			if p < p1 {
				p = p1
			}
		}
		// Evaluate f(p) over the active coordinates. z ≤ e·z, so the clip is
		// min(max(·, z), e·z): no data-dependent branch in the loop.
		f := base + float64(nfree)*p
		for i, ri := range ar {
			zi := az[i]
			f += min(max(ri+p, zi), e*zi)
		}
		// f is nondecreasing: the leftmost crossing is ≤ p iff f(p) ≥ 1.
		if f >= 1 {
			b = p
		} else {
			a = p
		}
		// Retire coordinates with no breakpoint left inside (a, b): their
		// clip status is constant across the remaining interval.
		w := 0
		for i, ri := range ar {
			zi := az[i]
			lo := zi - ri
			hi := e*zi - ri
			switch {
			case lo >= b: // clipped low for every λ ≤ b
				base += zi
			case hi <= a: // clipped high for every λ > a
				base += e * zi
			case lo <= a && hi >= b: // free on the whole interval
				base += ri
				nfree++
			default:
				ar[w], az[w] = ri, zi
				w++
			}
		}
		ar, az = ar[:w], az[:w]
	}
	// No breakpoints left in (a, b): f is linear there with slope nfree,
	// f(λ) = base + nfree·λ, and the crossing is bracketed by construction.
	if nfree > 0 {
		lam := (1 - base) / float64(nfree)
		// Round-off guard: keep λ inside the bracket.
		if lam < a {
			lam = a
		} else if lam > b {
			lam = b
		}
		return lam
	}
	// Degenerate flat interval (only reachable when Σz or e^ε Σz round to 1):
	// any λ in the bracket projects identically.
	if !math.IsInf(a, -1) {
		return a
	}
	return b
}

// MatrixProjection is the result of projecting every column of a matrix onto
// the bounded probability simplex.
type MatrixProjection struct {
	// Q is the projected matrix (each column feasible).
	Q *linalg.Matrix
	// State is m×n; State[o*n+u] is the clip state of entry (o, u).
	State []ClipState
	// NumFree[u] counts free coordinates in column u.
	NumFree []int
}

// reshape (re)sizes the projection buffers for an m×n problem, reusing
// existing storage when the shape already matches.
func (p *MatrixProjection) reshape(m, n int) {
	if p.Q == nil || p.Q.Rows() != m || p.Q.Cols() != n {
		p.Q = linalg.New(m, n)
	}
	if cap(p.State) < m*n {
		p.State = make([]ClipState, m*n)
	}
	p.State = p.State[:m*n]
	if cap(p.NumFree) < n {
		p.NumFree = make([]int, n)
	}
	p.NumFree = p.NumFree[:n]
}

// projWorker is one worker's scratch for ProjectMatrixInto: the gathered
// column, solveLambda's active (r, z) pairs, and the rows the column left
// free.
type projWorker struct {
	col, ar, az []float64
	free        []int32
}

func (w *projWorker) grow(m int) {
	// Each buffer's capacity is its own third of buf, so the test below
	// speaks for all three.
	if cap(w.col) < m {
		buf := make([]float64, 3*m)
		w.col, w.ar, w.az = buf[:m:m], buf[m:2*m:2*m], buf[2*m:]
		w.free = make([]int32, m)
	}
	w.col, w.ar, w.az, w.free = w.col[:m], w.ar[:m], w.az[:m], w.free[:m]
}

// Scratch holds the per-worker buffers ProjectMatrixInto needs. The zero
// value is ready to use; buffers grow on demand and are reused across calls,
// so steady-state projections at a fixed shape allocate nothing. A Scratch
// must not be shared by concurrent ProjectMatrixInto calls (the call itself
// parallelizes internally).
type Scratch struct {
	workers []projWorker
}

// ProjectMatrix solves Problem 4.1 for every column of r (Proposition 4.2 /
// Algorithm 1): column u of the result is the Euclidean projection of column
// u of r onto {q : z ≤ q ≤ e^ε z, 1ᵀq = 1} — the operator Π_{z,ε}(R).
//
// z must be coordinate-wise non-negative with Σz ≤ 1 ≤ e^ε Σz (otherwise the
// set is empty and ErrInfeasible is returned).
func ProjectMatrix(r *linalg.Matrix, z []float64, eps float64) (*MatrixProjection, error) {
	out := &MatrixProjection{}
	var ws Scratch
	if err := ProjectMatrixInto(out, &ws, r, z, eps); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectMatrixInto is ProjectMatrix writing into a caller-owned out and
// scratch ws, both reused (and resized on demand) across calls. Columns fan
// out across GOMAXPROCS goroutines above a work threshold; each column's
// result is independent of the split, so the output is bit-identical to the
// serial projection at any worker count. out.Q may be r itself (an in-place
// projection): each column is gathered into scratch before any of its
// entries is written, and workers own disjoint columns.
func ProjectMatrixInto(out *MatrixProjection, ws *Scratch, r *linalg.Matrix, z []float64, eps float64) error {
	m, n := r.Rows(), r.Cols()
	if len(z) != m {
		return fmt.Errorf("opt: z has %d entries, R has %d rows", len(z), m)
	}
	e := math.Exp(eps)
	if err := validateZ(z, e); err != nil {
		return err
	}
	out.reshape(m, n)
	if w := linalg.MaxWorkers(); len(ws.workers) < w {
		ws.workers = append(ws.workers, make([]projWorker, w-len(ws.workers))...)
	}

	// ~m log(2m) comparisons per column dominate; weight them like flops.
	cost := n * m * 24
	if !linalg.ShouldParallel(n, cost) {
		ws.workers[0].projectCols(out, r, z, e, 0, n)
		return nil
	}
	linalg.ParallelRange(n, cost, func(worker, lo, hi int) {
		ws.workers[worker].projectCols(out, r, z, e, lo, hi)
	})
	return nil
}

// projectCols projects the column block [lo, hi) of r into out, using the
// worker's scratch buffers.
func (sc *projWorker) projectCols(out *MatrixProjection, r *linalg.Matrix, z []float64, e float64, lo, hi int) {
	m, n := r.Rows(), r.Cols()
	rd, qd := r.Data(), out.Q.Data()
	sc.grow(m)
	for u := lo; u < hi; u++ {
		for o := 0; o < m; o++ {
			sc.col[o] = rd[o*n+u]
		}
		lambda := solveLambda(sc.ar, sc.az, sc.col, z, e)
		free := 0
		sum := 0.0
		for o := 0; o < m; o++ {
			v := sc.col[o] + lambda
			var q float64
			switch {
			case v <= z[o]:
				q = z[o]
				out.State[o*n+u] = ClipLow
			case v >= e*z[o]:
				q = e * z[o]
				out.State[o*n+u] = ClipHigh
			default:
				q = v
				out.State[o*n+u] = Free
				sc.free[free] = int32(o)
				free++
			}
			qd[o*n+u] = q
			sum += q
		}
		// Absorb residual round-off into the free coordinates so the column
		// sums to one exactly.
		if free > 0 {
			adj := (1 - sum) / float64(free)
			for _, o := range sc.free[:free] {
				qd[int(o)*n+u] += adj
			}
		}
		out.NumFree[u] = free
	}
}

// FeasibleZ rescales z in place so the bounded simplex is non-empty:
// Σz ≤ 1 ≤ e^ε Σz, with every coordinate at least floor ≥ 0. It returns z.
func FeasibleZ(z []float64, eps, floor float64) []float64 {
	for i := range z {
		if z[i] < floor {
			z[i] = floor
		}
	}
	e := math.Exp(eps)
	s := linalg.Sum(z)
	if s <= 0 {
		// Degenerate: spread uniformly at a feasible level.
		v := 1 / (e * float64(len(z)))
		for i := range z {
			z[i] = v
		}
		return z
	}
	const margin = 1e-9
	if s > 1-margin {
		linalg.ScaleVec((1-margin)/s, z)
	} else if e*s < 1+margin {
		linalg.ScaleVec((1+margin)/(e*s), z)
	}
	return z
}
