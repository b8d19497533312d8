package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix // packed L (unit lower) and U
	piv  []int   // row permutation
	sign int
}

// FactorLU computes the LU factorization of a square matrix.
func FactorLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |entry| in column k at or below row k.
		p := k
		pmax := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > pmax {
				pmax, p = a, i
			}
		}
		if pmax == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// SolveVec solves A x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic("linalg: LU SolveVec length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x
}

// Solve solves A X = B for a matrix right-hand side.
func (f *LU) Solve(b *Matrix) *Matrix {
	n := f.lu.rows
	if b.rows != n {
		panic("linalg: LU Solve shape mismatch")
	}
	out := New(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		x := f.SolveVec(col)
		out.SetCol(j, x)
	}
	return out
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A X = B using LU with partial pivoting.
func Solve(a, b *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns A⁻¹ using LU with partial pivoting.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// Cholesky holds the lower-triangular factor L with A = L Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of a symmetric positive
// definite matrix. It returns ErrSingular if a non-positive pivot is
// encountered (the matrix is not numerically positive definite).
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor computes the Cholesky factorization of a into c, reusing c's storage
// when the shape matches (so repeated factorizations at a fixed size
// allocate nothing). See FactorCholesky for the error contract.
func (c *Cholesky) Factor(a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	l := c.l
	if l == nil || l.rows != n || l.cols != n {
		l = New(n, n)
		c.l = l
	} else {
		clear(l.data)
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/ljj)
		}
	}
	return nil
}

// L returns the lower-triangular factor (aliasing internal storage).
func (c *Cholesky) L() *Matrix { return c.l }

// SolveVec solves A x = b given A = L Lᵀ.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic("linalg: Cholesky SolveVec length mismatch")
	}
	// Forward: L y = b.
	y := CloneVec(b)
	for i := 0; i < n; i++ {
		ri := c.l.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
	// Back: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	return y
}

// Solve solves A X = B given A = L Lᵀ.
func (c *Cholesky) Solve(b *Matrix) *Matrix {
	out := New(c.l.rows, b.cols)
	c.SolveTo(out, b)
	return out
}

// SolveTo solves A X = B into dst given A = L Lᵀ, reusing dst's storage. dst
// must have b's shape and must not alias b or the factor. Columns are
// independent triangular solves, processed in blocks that fan out across
// GOMAXPROCS goroutines for large right-hand sides; each element accumulates
// in the same order as SolveVec, so results are bit-identical to the serial
// column-at-a-time solve at any worker count.
func (c *Cholesky) SolveTo(dst, b *Matrix) {
	n := c.l.rows
	if b.rows != n {
		panic("linalg: Cholesky SolveTo shape mismatch")
	}
	if dst.rows != n || dst.cols != b.cols {
		panic("linalg: Cholesky SolveTo dst shape mismatch")
	}
	w := b.cols
	if !ShouldParallel(w, 2*n*n*w) {
		c.solveToCols(dst, b, 0, w)
		return
	}
	ParallelRange(w, 2*n*n*w, func(_, lo, hi int) {
		c.solveToCols(dst, b, lo, hi)
	})
}

// solveToCols solves the column block [lo, hi) of A X = B into dst in place:
// copy B in, then run the forward and back substitutions row-wise, four k's
// per pass over the row being eliminated, so L streams row-major once per
// block. d −= l·row is d += (−l)·row to the bit, which is what lets both
// substitutions share the products' addMul4.
func (c *Cholesky) solveToCols(dst, b *Matrix, lo, hi int) {
	n := c.l.rows
	w := b.cols
	ld, dd := c.l.data, dst.data
	for i := 0; i < n; i++ {
		copy(dd[i*w+lo:i*w+hi], b.data[i*w+lo:i*w+hi])
	}
	// Forward: L Y = B.
	for i := 0; i < n; i++ {
		ri := ld[i*n : (i+1)*n]
		d := dd[i*w+lo : i*w+hi]
		k := 0
		for ; k+4 <= i; k += 4 {
			addMul4(d, dd[k*w+lo:], dd[(k+1)*w+lo:], dd[(k+2)*w+lo:], dd[(k+3)*w+lo:],
				-ri[k], -ri[k+1], -ri[k+2], -ri[k+3])
		}
		for ; k < i; k++ {
			addMul1(d, dd[k*w+lo:], -ri[k])
		}
		lii := ri[i]
		for j := range d {
			d[j] /= lii
		}
	}
	// Back: Lᵀ X = Y.
	for i := n - 1; i >= 0; i-- {
		d := dd[i*w+lo : i*w+hi]
		k := i + 1
		for ; k+4 <= n; k += 4 {
			addMul4(d, dd[k*w+lo:], dd[(k+1)*w+lo:], dd[(k+2)*w+lo:], dd[(k+3)*w+lo:],
				-ld[k*n+i], -ld[(k+1)*n+i], -ld[(k+2)*n+i], -ld[(k+3)*n+i])
		}
		for ; k < n; k++ {
			addMul1(d, dd[k*w+lo:], -ld[k*n+i])
		}
		lii := ld[i*n+i]
		for j := range d {
			d[j] /= lii
		}
	}
}
