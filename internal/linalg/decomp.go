package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Cholesky holds the lower-triangular factor L with A = L Lᵀ.
type Cholesky struct {
	l *Matrix
}

// Factor computes the Cholesky factorization of a symmetric positive definite
// a into c, reusing c's storage when the shape matches (so repeated
// factorizations at a fixed size allocate nothing). It returns ErrSingular if
// a non-positive pivot is encountered (a is not numerically positive
// definite).
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
// in the same order as the serial column-at-a-time solve, so results are
// bit-identical to it at any worker count.
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
