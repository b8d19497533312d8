package opt

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/workload"
)

// columnProjection is one column of a MatrixProjection.
type columnProjection struct {
	Q       []float64
	State   []ClipState
	NumFree int
}

// projectColumn is Problem 4.1 for a single column — the Euclidean projection
// of r onto {q : z ≤ q ≤ e^ε z, 1ᵀq = 1} — as the optimizer computes it:
// ProjectMatrix on the m×1 matrix, so the properties below (the bisection
// reference, nearest point, idempotence, the clip states) are checked on the
// code run executes.
func projectColumn(r, z []float64, eps float64) (*columnProjection, error) {
	mp, err := ProjectMatrix(linalg.NewFrom(len(r), 1, append([]float64(nil), r...)), z, eps)
	if err != nil {
		return nil, err
	}
	return &columnProjection{Q: mp.Q.Data(), State: mp.State, NumFree: mp.NumFree[0]}, nil
}

// bisectProject is a slow, obviously-correct reference for projectColumn:
// binary search on λ.
func bisectProject(r, z []float64, eps float64) []float64 {
	e := math.Exp(eps)
	f := func(lam float64) float64 {
		s := 0.0
		for i := range r {
			v := r[i] + lam
			if v < z[i] {
				v = z[i]
			}
			if v > e*z[i] {
				v = e * z[i]
			}
			s += v
		}
		return s - 1
	}
	lo, hi := -1e6, 1e6
	for it := 0; it < 200; it++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lam := (lo + hi) / 2
	out := make([]float64, len(r))
	for i := range r {
		v := r[i] + lam
		if v < z[i] {
			v = z[i]
		}
		if v > e*z[i] {
			v = e * z[i]
		}
		out[i] = v
	}
	return out
}

func feasibleZ(rng *rand.Rand, m int, eps float64) []float64 {
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.Float64()
	}
	// Scale so Σz is strictly inside [e^-ε, 1].
	target := math.Exp(-eps) + (1-math.Exp(-eps))*(0.2+0.6*rng.Float64())
	linalg.ScaleVec(target/linalg.Sum(z), z)
	return z
}

func TestProjectColumnMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(20)
		eps := 0.2 + 3*rng.Float64()
		z := feasibleZ(rng, m, eps)
		r := make([]float64, m)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		cp, err := projectColumn(r, z, eps)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bisectProject(r, z, eps)
		for i := range want {
			if math.Abs(cp.Q[i]-want[i]) > 1e-7 {
				t.Fatalf("trial %d: q[%d] = %v, want %v", trial, i, cp.Q[i], want[i])
			}
		}
	}
}

func TestProjectColumnFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(30)
		eps := 0.1 + 4*rng.Float64()
		e := math.Exp(eps)
		z := feasibleZ(rng, m, eps)
		r := make([]float64, m)
		for i := range r {
			r[i] = 5 * rng.NormFloat64()
		}
		cp, err := projectColumn(r, z, eps)
		if err != nil {
			return false
		}
		if math.Abs(linalg.Sum(cp.Q)-1) > 1e-9 {
			return false
		}
		for i := range cp.Q {
			if cp.Q[i] < z[i]-1e-9 || cp.Q[i] > e*z[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectColumnIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(10)
		eps := 0.5 + rng.Float64()
		z := feasibleZ(rng, m, eps)
		r := make([]float64, m)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		cp, err := projectColumn(r, z, eps)
		if err != nil {
			t.Fatal(err)
		}
		cp2, err := projectColumn(cp.Q, z, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cp.Q {
			if math.Abs(cp.Q[i]-cp2.Q[i]) > 1e-9 {
				t.Fatalf("projection not idempotent at %d: %v vs %v", i, cp.Q[i], cp2.Q[i])
			}
		}
	}
}

// The projection must be the closest feasible point: no random feasible point
// may be closer to r.
func TestProjectColumnIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(8)
		eps := 0.5 + 2*rng.Float64()
		z := feasibleZ(rng, m, eps)
		r := make([]float64, m)
		for i := range r {
			r[i] = 2 * rng.NormFloat64()
		}
		cp, err := projectColumn(r, z, eps)
		if err != nil {
			t.Fatal(err)
		}
		dist := func(q []float64) float64 {
			s := 0.0
			for i := range q {
				s += (q[i] - r[i]) * (q[i] - r[i])
			}
			return s
		}
		dStar := dist(cp.Q)
		// Generate random feasible competitors by projecting random vectors.
		for k := 0; k < 20; k++ {
			v := make([]float64, m)
			for i := range v {
				v[i] = 2 * rng.NormFloat64()
			}
			other, err := projectColumn(v, z, eps)
			if err != nil {
				t.Fatal(err)
			}
			if dist(other.Q) < dStar-1e-8 {
				t.Fatalf("found feasible point closer than the projection: %v < %v", dist(other.Q), dStar)
			}
		}
	}
}

func TestProjectColumnInfeasible(t *testing.T) {
	// Σz > 1.
	z := []float64{0.8, 0.8}
	if _, err := projectColumn([]float64{0, 0}, z, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible for Σz > 1, got %v", err)
	}
	// e^ε Σz < 1.
	z2 := []float64{0.1, 0.1}
	if _, err := projectColumn([]float64{0, 0}, z2, 0.1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible for e^ε Σz < 1, got %v", err)
	}
	// Negative z.
	if _, err := projectColumn([]float64{0, 0}, []float64{-0.1, 0.5}, 1); err == nil {
		t.Fatal("expected error for negative z")
	}
}

// TestProjectRejectsNonFiniteBounds: a NaN bound fails every comparison, so
// v < 0, Σz > 1 and e^ε Σz < 1 all let it through, and the projection came
// back with a nil error, an all-NaN Q, every State Free and NumFree = m. Both
// entry points must refuse it (and an infinite bound) naming the index.
func TestProjectRejectsNonFiniteBounds(t *testing.T) {
	r := []float64{0.1, 0.2, 0.3}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		z := []float64{0.3, bad, 0.3}
		col, err := projectColumn(r, z, 1)
		if err == nil || !strings.Contains(err.Error(), "z[1]") {
			t.Errorf("ProjectMatrix with z[1] = %v: error %v (Q %v), want one naming z[1]", bad, err, col)
		}
		var out MatrixProjection
		var ws Scratch
		err = ProjectMatrixInto(&out, &ws, linalg.NewFrom(3, 1, append([]float64(nil), r...)), z, 1)
		if err == nil || !strings.Contains(err.Error(), "z[1]") {
			t.Errorf("ProjectMatrixInto with z[1] = %v: error %v, want one naming z[1]", bad, err)
		}
	}
}

func TestProjectColumnStates(t *testing.T) {
	// Construct a case with known clip pattern: r very negative in coord 0
	// (clip low), very positive in coord 1 (clip high), moderate in others.
	eps := 1.0
	z := []float64{0.2, 0.2, 0.2}
	r := []float64{-10, 10, 0.3}
	cp, err := projectColumn(r, z, eps)
	if err != nil {
		t.Fatal(err)
	}
	if cp.State[0] != ClipLow {
		t.Fatalf("state[0] = %d, want ClipLow", cp.State[0])
	}
	if cp.State[1] != ClipHigh {
		t.Fatalf("state[1] = %d, want ClipHigh", cp.State[1])
	}
	if cp.State[2] != Free {
		t.Fatalf("state[2] = %d, want Free", cp.State[2])
	}
	if cp.NumFree != 1 {
		t.Fatalf("NumFree = %d, want 1", cp.NumFree)
	}
	wantFree := 1 - z[0] - math.E*z[1]
	if math.Abs(cp.Q[2]-wantFree) > 1e-9 {
		t.Fatalf("free coordinate = %v, want %v", cp.Q[2], wantFree)
	}
}

func TestProjectMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 12, 5
	eps := 1.0
	z := feasibleZ(rng, m, eps)
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.NormFloat64()
	}
	mp, err := ProjectMatrix(r, z, eps)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		col := mp.Q.Col(u)
		if math.Abs(linalg.Sum(col)-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", u, linalg.Sum(col))
		}
	}
	// State bookkeeping: NumFree consistent with State.
	for u := 0; u < n; u++ {
		free := 0
		for o := 0; o < m; o++ {
			if mp.State[o*n+u] == Free {
				free++
			}
		}
		if free != mp.NumFree[u] {
			t.Fatalf("column %d: NumFree = %d, states say %d", u, mp.NumFree[u], free)
		}
	}
}

func TestFeasibleZ(t *testing.T) {
	eps := 1.0
	// Too large: must be scaled down below 1.
	z := []float64{0.9, 0.9}
	FeasibleZ(z, eps, 0)
	if linalg.Sum(z) > 1 {
		t.Fatalf("Σz = %v after FeasibleZ", linalg.Sum(z))
	}
	// Too small: must be scaled up so e^ε Σz ≥ 1.
	z2 := []float64{0.01, 0.01}
	FeasibleZ(z2, eps, 0)
	if math.Exp(eps)*linalg.Sum(z2) < 1 {
		t.Fatalf("e^ε Σz = %v after FeasibleZ", math.Exp(eps)*linalg.Sum(z2))
	}
	// All-zero input gets a uniform feasible vector.
	z3 := []float64{0, 0, 0}
	FeasibleZ(z3, eps, 0)
	if _, err := projectColumn([]float64{0.3, 0.3, 0.4}, z3, eps); err != nil {
		t.Fatalf("FeasibleZ output still infeasible: %v", err)
	}
	// Floor respected.
	z4 := []float64{0, 0.5}
	FeasibleZ(z4, eps, 1e-6)
	if z4[0] < 1e-7 {
		t.Fatalf("floor not applied: %v", z4[0])
	}
}

func TestPowerIteration(t *testing.T) {
	// Known spectrum: diag(3, 2, 1) has λ_max(WᵀW) = 9.
	m := linalg.NewFrom(3, 3, []float64{3, 0, 0, 0, 2, 0, 0, 0, 1})
	got := PowerIteration(workload.NewExplicit("W", m), 100, 1)
	if math.Abs(got-9) > 1e-6 {
		t.Fatalf("power iteration = %v, want 9", got)
	}
	// Prefix workload: λ_max(WᵀW) must match the eigen solver.
	w := workload.NewPrefix(16)
	vals, _, err := linalg.SymEigen(w.Gram())
	if err != nil {
		t.Fatal(err)
	}
	got = PowerIteration(w, 200, 2)
	if math.Abs(got-vals[0]) > 1e-4*vals[0] {
		t.Fatalf("power iteration = %v, want %v", got, vals[0])
	}
}

func TestNNLSUnconstrainedInterior(t *testing.T) {
	// When the LS solution is already non-negative, NNLS must find it.
	w := linalg.NewFrom(3, 2, []float64{1, 0, 0, 1, 1, 1})
	xTrue := []float64{2, 3}
	b := w.MulVec(xTrue)
	res, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{MaxIters: 2000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("NNLS x = %v, want %v (obj %v)", res.X, xTrue, res.Objective)
		}
	}
}

func TestNNLSActiveConstraint(t *testing.T) {
	// min (x0 - (-1))² + (x1 - 2)² s.t. x ≥ 0 → x = (0, 2).
	w := linalg.Identity(2)
	b := []float64{-1, 2}
	res, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-6 || math.Abs(res.X[1]-2) > 1e-6 {
		t.Fatalf("NNLS x = %v, want [0 2]", res.X)
	}
	if math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("objective = %v, want 1", res.Objective)
	}
}

func TestNNLSNonNegativityAlways(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, n := 3+rng.Intn(6), 2+rng.Intn(4)
		w := linalg.New(p, n)
		for i := range w.Data() {
			w.Data()[i] = rng.NormFloat64()
		}
		b := make([]float64, p)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{MaxIters: 300})
		if err != nil {
			return false
		}
		for _, v := range res.X {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNNLSWithImplicitWorkload(t *testing.T) {
	// Solve against the implicit AllRange operator and verify the result
	// matches the explicit-matrix solve.
	rng := rand.New(rand.NewSource(5))
	w := workload.NewAllRange(6)
	xTrue := make([]float64, 6)
	for i := range xTrue {
		xTrue[i] = rng.Float64() * 10
	}
	b := w.MatVec(xTrue)
	res1, err := NNLS(w, b, NNLSOptions{MaxIters: 3000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := NNLS(workload.NewExplicit("W", workload.Materialize(w)), b, NNLSOptions{MaxIters: 3000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(res1.X[i]-xTrue[i]) > 1e-3 {
			t.Fatalf("implicit NNLS x = %v, want %v", res1.X, xTrue)
		}
		if math.Abs(res1.X[i]-res2.X[i]) > 1e-3 {
			t.Fatalf("implicit vs explicit disagree: %v vs %v", res1.X, res2.X)
		}
	}
}

func TestNNLSX0Seeding(t *testing.T) {
	w := linalg.Identity(3)
	b := []float64{1, 2, 3}
	res, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{X0: []float64{1, 2, 3}, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 1e-10 {
		t.Fatalf("seeded NNLS should converge immediately, obj = %v", res.Objective)
	}
	// Negative seeds are clipped.
	if _, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{X0: []float64{-1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	// Wrong-length seed errors.
	if _, err := NNLS(workload.NewExplicit("W", w), b, NNLSOptions{X0: []float64{1}}); err == nil {
		t.Fatal("expected error for bad X0 length")
	}
}

func TestNNLSBadRHS(t *testing.T) {
	if _, err := NNLS(workload.NewExplicit("W", linalg.Identity(3)), []float64{1}, NNLSOptions{}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}
