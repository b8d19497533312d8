package linalg

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// serialMul is a reference a*b that accumulates each element over k in
// ascending order with the same zero-skip as the production kernel — the
// order the parallel kernels promise to preserve.
func serialMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			s := 0.0
			for k := 0; k < a.cols; k++ {
				if av := a.At(i, k); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	// Sprinkle exact zeros so the skip-zero fast paths are exercised.
	for k := 0; k < rows*cols/10; k++ {
		m.data[rng.Intn(len(m.data))] = 0
	}
	return m
}

// withGOMAXPROCS runs fn at the given GOMAXPROCS so the fan-out path is
// exercised even on single-core machines.
func withGOMAXPROCS(t *testing.T, procs int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// bitEqual reports exact (bit-for-bit) equality of two matrices.
func bitEqual(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// TestParallelMulBitIdentical checks the paper-critical reproducibility
// property: parallel products match the serial reference bit-for-bit on
// random shapes, at several worker counts, including shapes big enough to
// cross the fan-out threshold.
func TestParallelMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {17, 9, 23}, {64, 64, 64}, {130, 70, 90}, {256, 64, 64},
	}
	for _, procs := range []int{1, 2, 4, 7} {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, k, n)
			want := serialMul(a, b)
			withGOMAXPROCS(t, procs, func() {
				if got := Mul(a, b); !bitEqual(got, want) {
					t.Errorf("procs=%d %dx%dx%d: Mul differs from serial reference", procs, m, k, n)
				}
				dst := New(m, n)
				dst.data[0] = 99 // stale garbage must be overwritten
				MulTo(dst, a, b)
				if !bitEqual(dst, want) {
					t.Errorf("procs=%d %dx%dx%d: MulTo differs from serial reference", procs, m, k, n)
				}
			})
		}
	}
}

func TestParallelMulAtBBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := [][3]int{{1, 1, 1}, {9, 4, 6}, {40, 30, 20}, {256, 64, 64}, {300, 80, 80}}
	for _, procs := range []int{1, 3, 5} {
		for _, sh := range shapes {
			k, m, n := sh[0], sh[1], sh[2] // a is k×m, b is k×n
			a := randomMatrix(rng, k, m)
			b := randomMatrix(rng, k, n)
			want := serialMul(a.T(), b)
			withGOMAXPROCS(t, procs, func() {
				if got := MulAtB(a, b); !bitEqual(got, want) {
					t.Errorf("procs=%d %dx%dx%d: MulAtB differs from serial reference", procs, k, m, n)
				}
				dst := randomMatrix(rng, m, n) // stale garbage must be overwritten
				MulAtBTo(dst, a, b)
				if !bitEqual(dst, want) {
					t.Errorf("procs=%d %dx%dx%d: MulAtBTo differs from serial reference", procs, k, m, n)
				}
			})
		}
	}
}

func TestParallelMulABtBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := [][3]int{{1, 1, 1}, {7, 5, 9}, {50, 40, 30}, {128, 128, 64}}
	for _, procs := range []int{1, 4} {
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2] // a is m×k, b is n×k
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, n, k)
			want := Mul(a, b.T())
			withGOMAXPROCS(t, procs, func() {
				if got := MulABt(a, b); !bitEqual(got, want) {
					t.Errorf("procs=%d %dx%dx%d: MulABt differs", procs, m, n, k)
				}
				dst := New(m, n)
				MulABtTo(dst, a, b)
				if !bitEqual(dst, want) {
					t.Errorf("procs=%d %dx%dx%d: MulABtTo differs", procs, m, n, k)
				}
			})
		}
	}
}

// TestCholeskySolveToBitIdentical checks the blocked, parallel multi-RHS
// solve against the column-at-a-time SolveVec it replaces.
func TestCholeskySolveToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, procs := range []int{1, 4} {
		for _, n := range []int{1, 5, 33, 96} {
			// SPD matrix: AᵀA + n·I.
			a := randomMatrix(rng, n, n)
			spd := MulAtB(a, a)
			for i := 0; i < n; i++ {
				spd.Set(i, i, spd.At(i, i)+float64(n))
			}
			ch, err := FactorCholesky(spd)
			if err != nil {
				t.Fatal(err)
			}
			b := randomMatrix(rng, n, 2*n+1)
			want := New(n, b.cols)
			col := make([]float64, n)
			for j := 0; j < b.cols; j++ {
				for i := 0; i < n; i++ {
					col[i] = b.At(i, j)
				}
				want.SetCol(j, ch.SolveVec(col))
			}
			withGOMAXPROCS(t, procs, func() {
				got := New(n, b.cols)
				ch.SolveTo(got, b)
				if !bitEqual(got, want) {
					t.Errorf("procs=%d n=%d: SolveTo differs from SolveVec columns", procs, n)
				}
				if got2 := ch.Solve(b); !bitEqual(got2, want) {
					t.Errorf("procs=%d n=%d: Solve differs from SolveVec columns", procs, n)
				}
			})
		}
	}
}

// TestCholeskyFactorReuse checks that refactoring into the same Cholesky
// reuses storage and clears stale state from a previous, larger problem.
func TestCholeskyFactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var c Cholesky
	for _, n := range []int{8, 8, 4, 8} {
		a := randomMatrix(rng, n, n)
		spd := MulAtB(a, a)
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+float64(n))
		}
		if err := c.Factor(spd); err != nil {
			t.Fatal(err)
		}
		fresh, err := FactorCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(c.l, fresh.l) {
			t.Fatalf("n=%d: reused factor differs from fresh factor", n)
		}
	}
}

// TestParallelRangeCoversOnce pins what opt.Scratch relies on, with the
// caller as worker 0: every index covered once, worker indices dense in
// [0, MaxWorkers()) and used by at most one block of a call, no empty block
// dispatched — for ParallelRange's even split and for the triangle kernel's
// area split, including more workers than rows.
func TestParallelRangeCoversOnce(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 8} {
		withGOMAXPROCS(t, procs, func() {
			for _, n := range []int{0, 1, 2, 3, 5, 7, 37, 64} {
				check := func(name string, split func(fn func(w, lo, hi int))) {
					var mu sync.Mutex
					hits := make([]int, n)
					used := map[int]bool{}
					split(func(w, lo, hi int) {
						mu.Lock()
						defer mu.Unlock()
						if w < 0 || w >= MaxWorkers() || used[w] {
							t.Errorf("%s procs=%d n=%d: worker index %d out of range or reused", name, procs, n, w)
						}
						used[w] = true
						if lo >= hi {
							t.Errorf("%s procs=%d n=%d: empty block [%d,%d) dispatched", name, procs, n, lo, hi)
						}
						for i := lo; i < hi; i++ {
							hits[i]++
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Errorf("%s procs=%d n=%d: index %d covered %d times", name, procs, n, i, h)
						}
					}
				}
				// Large cost forces fan-out regardless of n.
				check("even", func(fn func(w, lo, hi int)) { ParallelRange(n, 1<<30, fn) })
				if workers := min(MaxWorkers(), n); workers > 0 {
					check("area", func(fn func(w, lo, hi int)) {
						fanOut(workers, func(k int) int { return triangleBound(n, k, workers) }, fn)
					})
				}
			}
		})
	}
}

// TestMulToMatchesKnownProduct pins a tiny hand-checked product so the kernel
// rewiring cannot silently change semantics.
func TestMulToMatchesKnownProduct(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := NewFrom(2, 2, []float64{58, 64, 139, 154})
	if got := Mul(a, b); !bitEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestToVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := randomMatrix(rng, 12, 8)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, 12)
	m.MulVecTo(dst, x)
	for i, v := range m.MulVec(x) {
		if dst[i] != v {
			t.Fatalf("MulVecTo[%d] = %v, want %v", i, dst[i], v)
		}
	}
	sums := make([]float64, 12)
	m.RowSumsTo(sums)
	for i, v := range m.RowSums() {
		if sums[i] != v {
			t.Fatalf("RowSumsTo[%d] = %v, want %v", i, sums[i], v)
		}
	}
	s := make([]float64, 12)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	scaled := New(12, 8)
	m.ScaleRowsTo(scaled, s)
	ref := m.Clone().ScaleRows(s)
	if !bitEqual(scaled, ref) {
		t.Fatal("ScaleRowsTo differs from Clone+ScaleRows")
	}
	tr := New(8, 12)
	m.TransposeTo(tr)
	if !bitEqual(tr, m.T()) {
		t.Fatal("TransposeTo differs from T")
	}
}

func ExampleParallelRange() {
	sum := make([]int, 8)
	ParallelRange(8, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i] = i * i
		}
	})
	fmt.Println(sum)
	// Output: [0 1 4 9 16 25 36 49]
}
