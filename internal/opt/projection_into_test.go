package opt

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// serialProjectMatrix projects one column at a time (projectColumn: an m×1
// matrix on the caller's goroutine), which the fan-out over many columns must
// reproduce bit-for-bit.
func serialProjectMatrix(t *testing.T, r *linalg.Matrix, z []float64, eps float64) *MatrixProjection {
	t.Helper()
	m, n := r.Rows(), r.Cols()
	out := &MatrixProjection{Q: linalg.New(m, n), State: make([]ClipState, m*n), NumFree: make([]int, n)}
	col := make([]float64, m)
	for u := 0; u < n; u++ {
		for o := 0; o < m; o++ {
			col[o] = r.At(o, u)
		}
		cp, err := projectColumn(col, z, eps)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < m; o++ {
			out.Q.Set(o, u, cp.Q[o])
			out.State[o*n+u] = cp.State[o]
		}
		out.NumFree[u] = cp.NumFree
	}
	return out
}

func sameProjection(a, b *MatrixProjection) bool {
	if !linalg.ApproxEqual(a.Q, b.Q, 0) { // tol 0: bit-for-bit
		return false
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			return false
		}
	}
	for i := range a.NumFree {
		if a.NumFree[i] != b.NumFree[i] {
			return false
		}
	}
	return true
}

// TestProjectMatrixIntoBitIdentical checks the parallel, scratch-reusing
// projection against the column-at-a-time reference across worker counts and
// shapes, reusing the same out/scratch between calls.
func TestProjectMatrixIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var out MatrixProjection
	var ws Scratch
	for _, procs := range []int{1, 2, 3, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, sh := range [][2]int{{8, 3}, {64, 16}, {256, 64}, {32, 32}, {37 * 4, 37}, {67, 129}} {
			m, n := sh[0], sh[1]
			eps := 1.0
			z := linalg.Constant(m, 0.7/float64(m))
			if m%2 == 1 {
				z = feasibleZ(rng, m, eps) // uneven bounds: few free rows per column
			}
			r := linalg.New(m, n)
			for i := range r.Data() {
				r.Data()[i] = rng.NormFloat64()
			}
			want := serialProjectMatrix(t, r, z, eps)
			if err := ProjectMatrixInto(&out, &ws, r, z, eps); err != nil {
				t.Fatal(err)
			}
			if !sameProjection(&out, want) {
				t.Errorf("procs=%d m=%d n=%d: ProjectMatrixInto differs from serial reference", procs, m, n)
			}
			mp, err := ProjectMatrix(r, z, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !sameProjection(mp, want) {
				t.Errorf("procs=%d m=%d n=%d: ProjectMatrix differs from serial reference", procs, m, n)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestProjectMatrixIntoInPlace: projecting r into a MatrixProjection whose Q
// is r itself gives the bits of projecting into separate storage, at any
// worker count — each column is gathered before any of its entries is
// written, and workers own disjoint columns. The optimizer builds its start
// and every step in the spare projection's Q and projects it there.
func TestProjectMatrixIntoInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ws Scratch
	for _, procs := range []int{1, 2, 3} {
		old := runtime.GOMAXPROCS(procs)
		for _, sh := range [][2]int{{8, 3}, {64, 16}, {37 * 4, 37}, {256, 64}, {67, 129}} {
			m, n := sh[0], sh[1]
			eps := 1.0
			z := linalg.Constant(m, 0.7/float64(m))
			if m%2 == 1 {
				z = feasibleZ(rng, m, eps)
			}
			r := linalg.New(m, n)
			for i := range r.Data() {
				r.Data()[i] = rng.NormFloat64()
			}
			want, err := ProjectMatrix(r, z, eps)
			if err != nil {
				t.Fatal(err)
			}
			out := MatrixProjection{Q: r}
			if err := ProjectMatrixInto(&out, &ws, r, z, eps); err != nil {
				t.Fatal(err)
			}
			if out.Q != r {
				t.Fatalf("procs=%d m=%d n=%d: the in-place projection moved Q to new storage", procs, m, n)
			}
			if !sameProjection(&out, want) {
				t.Errorf("procs=%d m=%d n=%d: in-place projection differs from the out-of-place one", procs, m, n)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestProjectMatrixIntoSteadyStateAllocFree verifies the workspace contract:
// after the first call warms the buffers, repeated projections at the same
// shape allocate nothing (single-worker path; fan-out goroutines may allocate
// scheduler-side).
func TestProjectMatrixIntoSteadyStateAllocFree(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	m, n := 128, 32
	rng := rand.New(rand.NewSource(10))
	z := linalg.Constant(m, 0.8/float64(m))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.NormFloat64()
	}
	var out MatrixProjection
	var ws Scratch
	if err := ProjectMatrixInto(&out, &ws, r, z, 1.0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ProjectMatrixInto(&out, &ws, r, z, 1.0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ProjectMatrixInto allocates %v times per call", allocs)
	}
}

func TestProjectMatrixIntoInfeasible(t *testing.T) {
	var out MatrixProjection
	var ws Scratch
	z := []float64{0.9, 0.9} // Σz > 1
	err := ProjectMatrixInto(&out, &ws, linalg.New(2, 2), z, 1.0)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}

// BenchmarkProjection times the optimizer's per-iteration projection at the
// ledger's large call (m = 512, n = 128), from a mid-run-like R = Q + noise.
func BenchmarkProjection(b *testing.B) {
	const m, n = 512, 128
	rng := rand.New(rand.NewSource(11))
	z := linalg.Constant(m, 0.7/float64(m))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = 1/float64(m) + 0.01*rng.NormFloat64()
	}
	var out MatrixProjection
	var ws Scratch
	for b.Loop() {
		if err := ProjectMatrixInto(&out, &ws, r, z, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}
