package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The one-k-per-pass kernels the four-k kernels replaced, kept verbatim as
// the references the differential tests below compare against bit for bit.

func refMulToRows(dst, a, b *Matrix, lo, hi int) {
	n := b.cols
	clear(dst.data[lo*n : hi*n])
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func refMulAtBToRows(dst, a, b *Matrix, lo, hi int) {
	n := b.cols
	clear(dst.data[lo*n : hi*n])
	for k := 0; k < a.rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func (c *Cholesky) refSolveToCols(dst, b *Matrix, lo, hi int) {
	n := c.l.rows
	w := b.cols
	for i := 0; i < n; i++ {
		copy(dst.data[i*w+lo:i*w+hi], b.data[i*w+lo:i*w+hi])
	}
	for i := 0; i < n; i++ {
		ri := c.l.Row(i)
		drow := dst.data[i*w : (i+1)*w]
		for k := 0; k < i; k++ {
			lik := ri[k]
			if lik == 0 {
				continue
			}
			krow := dst.data[k*w : (k+1)*w]
			for j := lo; j < hi; j++ {
				drow[j] -= lik * krow[j]
			}
		}
		lii := ri[i]
		for j := lo; j < hi; j++ {
			drow[j] /= lii
		}
	}
	for i := n - 1; i >= 0; i-- {
		drow := dst.data[i*w : (i+1)*w]
		for k := i + 1; k < n; k++ {
			lki := c.l.At(k, i)
			if lki == 0 {
				continue
			}
			krow := dst.data[k*w : (k+1)*w]
			for j := lo; j < hi; j++ {
				drow[j] -= lki * krow[j]
			}
		}
		lii := c.l.At(i, i)
		for j := lo; j < hi; j++ {
			drow[j] /= lii
		}
	}
}

// sameBits reports bit-for-bit equality of two matrices (any NaN equals any
// NaN: which operand's payload an addition of two NaNs keeps is the
// instruction selector's business, not the kernel's).
func sameBits(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		w := b.data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// kernelMatrix is a random matrix with what the zero-skip has to get right:
// scattered exact zeros (mixed groups of four), runs of zeros longer than a
// group at unaligned offsets (whole zero groups, as in a banded workload),
// and negative zeros.
func kernelMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	if len(m.data) == 0 {
		return m
	}
	for k := 0; k < len(m.data)/8; k++ {
		m.data[rng.Intn(len(m.data))] = 0
	}
	for k := 0; k < rows; k += 2 {
		at := k*cols + rng.Intn(cols)
		for j := at; j < at+9 && j < len(m.data); j++ {
			m.data[j] = 0
		}
	}
	m.data[rng.Intn(len(m.data))] = math.Copysign(0, -1)
	return m
}

var raggedDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 67}

// kernelRun is one row of the table every differential test below runs over:
// which body addMul4 takes, at which worker count.
type kernelRun struct {
	vector bool
	procs  int
}

// kernelRuns crosses the addMul4 bodies this machine can run — the detected
// one and, where that is the vector kernel, the Go loop it has to match —
// with the given worker counts.
func kernelRuns(procs ...int) []kernelRun {
	paths := []bool{false}
	if useAVX2 {
		paths = []bool{true, false}
	}
	var runs []kernelRun
	for _, vector := range paths {
		for _, p := range procs {
			runs = append(runs, kernelRun{vector, p})
		}
	}
	return runs
}

func (r kernelRun) String() string {
	name := "go"
	if r.vector {
		name = "avx2"
	}
	return fmt.Sprintf("kernel=%s procs=%d", name, r.procs)
}

// do runs fn with the row's addMul4 body and GOMAXPROCS in force.
func (r kernelRun) do(fn func()) {
	detected := useAVX2
	useAVX2 = r.vector
	defer func() { useAVX2 = detected }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.procs))
	fn()
}

// TestKernelProductsMatchOneK drives the row kernels directly over every
// ragged (rows, cols, k) and over blocks whose lo/hi are not multiples of
// four, comparing Float64bits with the one-k loops.
func TestKernelProductsMatchOneK(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	for _, rows := range raggedDims {
		for _, cols := range raggedDims {
			for _, k := range raggedDims {
				a, b := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, cols)
				at := kernelMatrix(rng, k, rows)
				for _, blk := range [][2]int{{0, rows}, {rows / 3, rows - rows/5}, {rows / 2, rows/2 + 1}} {
					lo, hi := blk[0], min(blk[1], rows)
					for _, run := range kernelRuns(1) {
						got, want := kernelMatrix(rng, rows, cols), New(rows, cols)
						want.CopyFrom(got) // rows outside [lo, hi) must be left alone
						run.do(func() { mulToRows(got, a, b, lo, hi) })
						refMulToRows(want, a, b, lo, hi)
						if !sameBits(got, want) {
							t.Fatalf("%v: mulToRows %dx%dx%d rows [%d,%d) differs from the one-k loop", run, rows, k, cols, lo, hi)
						}
						run.do(func() { mulAtBToRows(got, at, b, lo, hi, false) })
						refMulAtBToRows(want, at, b, lo, hi)
						if !sameBits(got, want) {
							t.Fatalf("%v: mulAtBToRows %dx%dx%d rows [%d,%d) differs from the one-k loop", run, k, rows, cols, lo, hi)
						}
					}
				}
			}
		}
	}
}

// TestKernelProductsMatchOneKParallel is the same comparison through the
// public entry points at sizes that fan out, at several worker counts.
func TestKernelProductsMatchOneKParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	for _, sh := range [][3]int{{67, 67, 67}, {130, 70, 90}, {37 * 4, 37, 37}, {256, 64, 64}, {9, 300, 301}} {
		rows, k, cols := sh[0], sh[1], sh[2]
		a, b, at := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, cols), kernelMatrix(rng, k, rows)
		want, wantAt := New(rows, cols), New(rows, cols)
		refMulToRows(want, a, b, 0, rows)
		refMulAtBToRows(wantAt, at, b, 0, rows)
		for _, run := range kernelRuns(1, 2, 3, 8) {
			run.do(func() {
				got := kernelMatrix(rng, rows, cols)
				MulTo(got, a, b)
				if !sameBits(got, want) {
					t.Errorf("%v: MulTo %dx%dx%d differs from the one-k loop", run, rows, k, cols)
				}
				MulAtBTo(got, at, b)
				if !sameBits(got, wantAt) {
					t.Errorf("%v: MulAtBTo %dx%dx%d differs from the one-k loop", run, k, rows, cols)
				}
			})
		}
	}
}

// TestKernelNonFiniteMatchesOneK: the identity is not only for finite input —
// a group with a zero takes the one-k passes, so 0·Inf is skipped by both.
func TestKernelNonFiniteMatchesOneK(t *testing.T) {
	rng := rand.New(rand.NewSource(232))
	a, b := kernelMatrix(rng, 19, 23), kernelMatrix(rng, 23, 11)
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		b.data[rng.Intn(len(b.data))] = v
		a.data[rng.Intn(len(a.data))] = v
	}
	got, want := New(19, 11), New(19, 11)
	mulToRows(got, a, b, 0, 19)
	refMulToRows(want, a, b, 0, 19)
	if !sameBits(got, want) {
		t.Fatal("mulToRows with non-finite entries differs from the one-k loop")
	}
}

// TestKernelCholeskySolveMatchesOneK compares both substitutions with the
// column-block solve they replaced, over ragged sizes, unaligned column
// blocks, factors with zeros in them, and every worker count.
func TestKernelCholeskySolveMatchesOneK(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	for _, n := range raggedDims[1:] {
		spd := randSPD(rng, n)
		if n > 4 {
			// A block-diagonal SPD matrix has a factor with whole zero groups.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if (i < n/2) != (j < n/2) {
						spd.Set(i, j, 0)
					}
				}
			}
		}
		ch, err := FactorCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range raggedDims {
			b := kernelMatrix(rng, n, w)
			for _, blk := range [][2]int{{0, w}, {w / 3, w - w/5}} {
				for _, run := range kernelRuns(1) {
					got, want := kernelMatrix(rng, n, w), New(n, w)
					want.CopyFrom(got)
					run.do(func() { ch.solveToCols(got, b, blk[0], blk[1]) })
					ch.refSolveToCols(want, b, blk[0], blk[1])
					if !sameBits(got, want) {
						t.Fatalf("%v: solveToCols n=%d w=%d cols [%d,%d) differs from the one-k solve", run, n, w, blk[0], blk[1])
					}
				}
			}
		}
	}
	for _, n := range []int{37, 67, 128} {
		ch, err := FactorCholesky(randSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		b := kernelMatrix(rng, n, n+3)
		want := New(n, n+3)
		ch.refSolveToCols(want, b, 0, n+3)
		for _, run := range kernelRuns(1, 2, 3, 8) {
			run.do(func() {
				got := New(n, n+3)
				ch.SolveTo(got, b)
				if !sameBits(got, want) {
					t.Errorf("%v n=%d: SolveTo differs from the one-k solve", run, n)
				}
			})
		}
	}
}

// TestKernelSymmetricProduct: the triangle kernel's lower triangle is
// MulAtBTo's bit for bit, its upper triangle is the exact mirror, and neither
// depends on the (area-balanced, hence GOMAXPROCS-dependent) row split.
func TestKernelSymmetricProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(234))
	for _, sh := range [][2]int{{0, 0}, {1, 1}, {3, 2}, {5, 4}, {12, 3}, {9, 5}, {17, 17}, {37 * 4, 37}, {300, 37}, {67 * 4, 67}, {512, 128}} {
		k, n := sh[0], sh[1]
		a := kernelMatrix(rng, k, n)
		s := make([]float64, k)
		for i := range s {
			s[i] = 0.5 + rng.Float64()
		}
		b := a.ScaleRowsTo(New(k, n), s)
		full := New(n, n)
		refMulAtBToRows(full, a, b, 0, n)
		for _, run := range kernelRuns(1, 2, 3, 8) {
			run.do(func() {
				got := kernelMatrix(rng, n, n)
				MulAtBSymTo(got, a, b)
				for i := 0; i < n; i++ {
					for j := 0; j <= i; j++ {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(full.At(i, j)) {
							t.Fatalf("%v %dx%d: lower (%d,%d) = %v, MulAtBTo has %v", run, k, n, i, j, got.At(i, j), full.At(i, j))
						}
						if math.Float64bits(got.At(j, i)) != math.Float64bits(got.At(i, j)) {
							t.Fatalf("%v %dx%d: upper (%d,%d) is not the mirror of the lower", run, k, n, j, i)
						}
					}
				}
				if !got.IsSymmetric(0) {
					t.Fatalf("%v %dx%d: not exactly symmetric", run, k, n)
				}
			})
		}
	}
}

// TestTriangleBoundBalancesArea: every block carries about 1/workers of the
// n(n+1)/2 row-lengths (whole rows, so only about), where an even row split
// at two workers would give the second block three times the first's.
func TestTriangleBoundBalancesArea(t *testing.T) {
	for _, n := range []int{64, 128, 512} {
		for _, workers := range []int{2, 3, 8} {
			total := float64(n) * float64(n+1) / 2
			for k := 0; k < workers; k++ {
				lo, hi := triangleBound(n, k, workers), triangleBound(n, k+1, workers)
				area := float64(hi*(hi+1)-lo*(lo+1)) / 2
				if share := area / total * float64(workers); share < 0.8 || share > 1.2 {
					t.Errorf("n=%d workers=%d block %d [%d,%d) carries %.2f of a fair share", n, workers, k, lo, hi, share)
				}
			}
		}
	}
}

// The micro-benchmarks behind the README's per-kernel GFlop/s table (CI
// compiles and runs them once). Sizes are the ledger's large call: n = 128,
// m = 4n.
func benchKernelFixture() (q, qs, sq, spdRHS *Matrix, ch *Cholesky) {
	const n, m = 128, 512
	rng := rand.New(rand.NewSource(1))
	q = New(m, n)
	for i := range q.data {
		q.data[i] = 0.1 + rng.Float64()
	}
	qs = q.Clone()
	sq = randSPD(rng, n)
	ch, err := FactorCholesky(sq)
	if err != nil {
		panic(err)
	}
	return q, qs, sq, randMatrix(rng, n, n), ch
}

func BenchmarkKernelMulTo(b *testing.B) {
	q, _, sq, _, _ := benchKernelFixture()
	dst := New(q.rows, q.cols)
	for b.Loop() {
		MulTo(dst, q, sq)
	}
	reportGFlops(b, 2*q.rows*q.cols*q.cols)
}

func BenchmarkKernelMulAtBTo(b *testing.B) {
	q, qs, _, _, _ := benchKernelFixture()
	dst := New(q.cols, q.cols)
	for b.Loop() {
		MulAtBTo(dst, q, qs)
	}
	reportGFlops(b, 2*q.rows*q.cols*q.cols)
}

func BenchmarkKernelMulAtBSymTo(b *testing.B) {
	q, qs, _, _, _ := benchKernelFixture()
	dst := New(q.cols, q.cols)
	for b.Loop() {
		MulAtBSymTo(dst, q, qs)
	}
	reportGFlops(b, q.rows*q.cols*(q.cols+1))
}

func BenchmarkKernelCholeskySolveTo(b *testing.B) {
	_, _, _, rhs, ch := benchKernelFixture()
	dst := New(rhs.rows, rhs.cols)
	for b.Loop() {
		ch.SolveTo(dst, rhs)
	}
	reportGFlops(b, 2*rhs.rows*rhs.rows*rhs.cols)
}

func reportGFlops(b *testing.B, flopsPerOp int) {
	b.ReportMetric(float64(flopsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func ExampleMulAtBSymTo() {
	a := NewFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := a.ScaleRowsTo(New(3, 2), []float64{1, 0.5, 2}) // Diag(s)·a
	m := New(2, 2)
	MulAtBSymTo(m, a, b)
	fmt.Println(m.Data())
	// Output: [55.5 68 68 84]
}

// TestKernelVecMatMatchesScalar compares MulVecTTo with the scalar chain it
// stands for — s += x[k]·a[k][col+i], k ascending from zero — bit for bit,
// over output lengths 0…9 and 33 (the vector loop, its ragged tail, neither),
// the same coefficient counts, column offsets that are not multiples of four,
// and coefficient vectors with zeros, negative zeros and negative entries, on
// every addMul4 body. dst's neighbours in its backing array stay untouched.
func TestKernelVecMatMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(490))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	for _, k := range lengths {
		for _, width := range lengths {
			for _, col := range []int{0, 1, 3, 6} {
				a := kernelMatrix(rng, k, col+width+2)
				x := kernelMatrix(rng, 1, k).data
				want := make([]float64, width)
				for i := range want {
					var s float64
					for kk, xv := range x {
						s += xv * a.At(kk, col+i)
					}
					want[i] = s
				}
				for _, run := range kernelRuns(1) {
					backing := kernelMatrix(rng, 1, width+4).data
					before := CloneVec(backing)
					dst := backing[2 : 2+width]
					run.do(func() { a.MulVecTTo(dst, x, col) })
					if !sameBitsVec(dst, want) {
						t.Fatalf("%v: MulVecTTo k=%d width=%d col=%d = %v, scalar chain %v", run, k, width, col, dst, want)
					}
					copy(before[2:2+width], want)
					if !sameBitsVec(backing, before) {
						t.Fatalf("%v: MulVecTTo k=%d width=%d col=%d wrote outside dst", run, k, width, col)
					}
				}
			}
		}
	}
}
