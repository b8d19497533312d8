// Package linalg provides the dense linear-algebra substrate used throughout
// the repository: matrices, factorizations (LU, Cholesky), a symmetric Jacobi
// eigendecomposition, pseudo-inverses of PSD matrices, and singular values.
//
// Everything is implemented on top of the standard library, in Go, with one
// exception: the inner loop of the product and solve kernels (addMul4) also
// has an AVX2 body in Go assembly (addmul_amd64.s), selected at init on
// amd64 machines whose CPU and OS support it. Matrices are dense, row-major,
// and sized for the problem scales of the paper (domains up to a few
// thousand).
//
// # Destination-passing (*To) variants and aliasing rules
//
// The hot path in internal/core runs thousands of iterations at a fixed
// shape, so every allocating operation used there has a destination-passing
// variant (MulTo, MulAtBTo, MulAtBSymTo, MulABtTo, MulVecTo, MulVecTTo,
// RowSumsTo, ScaleRowsTo, TransposeTo, Cholesky.Factor, Cholesky.SolveTo)
// that writes into caller-owned storage and allocates nothing in steady
// state. Unless a variant documents otherwise, dst must not alias any input:
// results are written incrementally, so an aliased destination would be read
// after being partially overwritten.
//
// # Parallelism and reproducibility
//
// Matrix products and multi-column triangular solves above a flop threshold
// fan out over contiguous row (or column) blocks across GOMAXPROCS
// goroutines (ParallelRange; block 0 runs on the caller). Every kernel
// accumulates each output element in a fixed order independent of the block
// split, so results are bit-identical to the serial kernel at any GOMAXPROCS
// — experiment outputs stay reproducible across machines and worker counts.
// The product and solve kernels take four k's per pass over a destination
// row (addMul4), which performs the one-k-per-pass roundings in the same
// order: grouping changes no bit. Neither does the choice of addMul4's body:
// the assembly multiplies and adds in separate instructions, in the Go
// loop's order (a fused multiply-add would round once where the loop rounds
// twice), so a machine with the vector unit and one without produce the same
// bits. The symmetric kernel's lower triangle equals MulAtBTo's, and its
// upper triangle is that triangle's mirror.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
//
// The zero value is an empty matrix. Use New, NewFrom or Identity to create
// matrices with a shape.
type Matrix struct {
	// rows and cols give the shape (read through Rows and Cols outside the
	// package); data holds the rows*cols entries, row after row.
	rows, cols int
	data       []float64
}

// New returns a rows x cols matrix of zeros.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFrom wraps data (row-major, length rows*cols) in a Matrix. The slice is
// used directly, not copied.
func NewFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Data exposes the backing row-major slice. Mutating it mutates the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic("linalg: SetRow length mismatch")
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.data, src.data)
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	m.TransposeTo(out)
	return out
}

// TransposeTo computes dst = mᵀ into dst, which must have shape
// m.Cols x m.Rows and must not alias m.
func (m *Matrix) TransposeTo(dst *Matrix) {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic("linalg: TransposeTo shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.data[j*m.rows+i] = v
		}
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled adds s*b to m in place and returns m. Shapes must match.
func (m *Matrix) AddScaled(s float64, b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic("linalg: AddScaled shape mismatch")
	}
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return m
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b, reusing dst's storage. dst must have shape
// a.Rows x b.Cols and must not alias a or b. Large products fan out over row
// blocks across GOMAXPROCS goroutines; results are bit-identical at any
// worker count (each element accumulates in a fixed order).
func MulTo(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic("linalg: MulTo shape mismatch")
	}
	if !ShouldParallel(a.rows, a.rows*a.cols*b.cols) {
		mulToRows(dst, a, b, 0, a.rows)
		return
	}
	ParallelRange(a.rows, a.rows*a.cols*b.cols, func(_, lo, hi int) {
		mulToRows(dst, a, b, lo, hi)
	})
}

// MulAtB returns aᵀ*b without materializing the transpose.
func MulAtB(a, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	MulAtBTo(out, a, b)
	return out
}

// MulAtBTo computes dst = aᵀ*b without materializing the transpose, reusing
// dst's storage. dst must have shape a.Cols x b.Cols and must not alias a or
// b. Parallel and bit-reproducible like MulTo.
func MulAtBTo(dst, a, b *Matrix) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic("linalg: MulAtBTo shape mismatch")
	}
	if !ShouldParallel(a.cols, a.rows*a.cols*b.cols) {
		mulAtBToRows(dst, a, b, 0, a.cols, false)
		return
	}
	ParallelRange(a.cols, a.rows*a.cols*b.cols, func(_, lo, hi int) {
		mulAtBToRows(dst, a, b, lo, hi, false)
	})
}

// MulAtBSymTo computes dst = aᵀ*b for a product the caller knows to be
// symmetric — b = Diag(s)·a, as in M = QᵀD⁻¹Q — at half MulAtBTo's flops:
// only the lower triangle is accumulated (each element over k ascending, so
// it equals MulAtBTo's lower triangle bit for bit) and then mirrored, which
// makes dst exactly symmetric by construction. a and b must share a shape,
// dst must be a.Cols x a.Cols and must not alias a or b. Rows fan out in
// blocks of equal area (row i costs i+1; equal row counts would give the
// last of two workers three times the first's work); the boundaries depend
// on GOMAXPROCS, the elements do not.
func MulAtBSymTo(dst, a, b *Matrix) {
	n := a.cols
	if a.rows != b.rows || b.cols != n || dst.rows != n || dst.cols != n {
		panic("linalg: MulAtBSymTo shape mismatch")
	}
	if cost := a.rows * n * (n + 1) / 2; !ShouldParallel(n, cost) {
		mulAtBToRows(dst, a, b, 0, n, true)
	} else {
		workers := min(MaxWorkers(), n)
		fanOut(workers, func(k int) int { return triangleBound(n, k, workers) }, func(_, lo, hi int) {
			mulAtBToRows(dst, a, b, lo, hi, true)
		})
	}
	for i := 0; i < n; i++ {
		for j, v := range dst.data[i*n : i*n+i] {
			dst.data[j*n+i] = v
		}
	}
}

// MulABt returns a*bᵀ without materializing the transpose.
func MulABt(a, b *Matrix) *Matrix {
	out := New(a.rows, b.rows)
	MulABtTo(out, a, b)
	return out
}

// MulABtTo computes dst = a*bᵀ without materializing the transpose, reusing
// dst's storage. dst must have shape a.Rows x b.Rows and must not alias a or
// b. Parallel and bit-reproducible like MulTo.
func MulABtTo(dst, a, b *Matrix) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic("linalg: MulABtTo shape mismatch")
	}
	if !ShouldParallel(a.rows, a.rows*a.cols*b.rows) {
		mulABtToRows(dst, a, b, 0, a.rows)
		return
	}
	ParallelRange(a.rows, a.rows*a.cols*b.rows, func(_, lo, hi int) {
		mulABtToRows(dst, a, b, lo, hi)
	})
}

// Gram returns aᵀ*a (the Gram matrix of a's columns).
func Gram(a *Matrix) *Matrix { return MulAtB(a, a) }

// MulVec returns m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes dst = m*x, reusing dst (length m.Rows). dst must not
// alias x.
func (m *Matrix) MulVecTo(dst, x []float64) {
	if len(x) != m.cols {
		panic("linalg: MulVecTo length mismatch")
	}
	if len(dst) != m.rows {
		panic("linalg: MulVecTo dst length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// MulVecT returns mᵀ*x.
func (m *Matrix) MulVecT(x []float64) []float64 {
	out := make([]float64, m.cols)
	m.MulVecTTo(out, x, 0)
	return out
}

// MulVecTTo sets dst[i] = Σ_k x[k]·m[k][col+i] for every i < len(dst): the
// entries col … col+len(dst)−1 of mᵀ*x. Each entry accumulates over k in
// ascending order from zero, four k's per pass over dst (addMul4), and a
// zero x[k] is skipped rather than multiplied — so for finite entries each
// dst[i] has the bits of the scalar chain `s += x[k]*m[k][col+i]` over the
// same k. dst must not alias x or m.
func (m *Matrix) MulVecTTo(dst, x []float64, col int) {
	if len(x) != m.rows {
		panic("linalg: MulVecTTo length mismatch")
	}
	if col < 0 || col+len(dst) > m.cols {
		panic("linalg: MulVecTTo columns out of range")
	}
	clear(dst)
	c, d := m.cols, m.data
	k := 0
	for ; k+4 <= len(x); k += 4 {
		addMul4(dst, d[k*c+col:], d[(k+1)*c+col:], d[(k+2)*c+col:], d[(k+3)*c+col:], x[k], x[k+1], x[k+2], x[k+3])
	}
	for ; k < len(x); k++ {
		addMul1(dst, d[k*c+col:], x[k])
	}
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic("linalg: Trace of non-square matrix")
	}
	t := 0.0
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// FrobNorm2 returns the squared Frobenius norm (sum of squared entries).
func (m *Matrix) FrobNorm2() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ScaleRowsTo computes dst = Diag(s)·m (row i of m scaled by s[i]) into dst,
// which must share m's shape. dst may alias m (the operation is element-wise).
func (m *Matrix) ScaleRowsTo(dst *Matrix, s []float64) *Matrix {
	if len(s) != m.rows {
		panic("linalg: ScaleRowsTo length mismatch")
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic("linalg: ScaleRowsTo shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		out := dst.Row(i)
		si := s[i]
		for j, v := range src {
			out[j] = v * si
		}
	}
	return dst
}

// ScaleCols multiplies column j by s[j] in place and returns m.
func (m *Matrix) ScaleCols(s []float64) *Matrix {
	if len(s) != m.cols {
		panic("linalg: ScaleCols length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
	return m
}

// RowSumsTo computes the row sums into dst (length m.Rows).
func (m *Matrix) RowSumsTo(dst []float64) {
	if len(dst) != m.rows {
		panic("linalg: RowSumsTo length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Sum(m.Row(i))
	}
}

// DiagOf returns the diagonal of a square matrix as a new slice.
func (m *Matrix) DiagOf() []float64 {
	if m.rows != m.cols {
		panic("linalg: DiagOf non-square matrix")
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+i]
	}
	return out
}

// Symmetrize replaces m with (m + mᵀ)/2 in place and returns m.
func (m *Matrix) Symmetrize() *Matrix {
	if m.rows != m.cols {
		panic("linalg: Symmetrize non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// ApproxEqual reports whether a and b have the same shape and all entries
// differ by at most tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Matrix(%dx%d)[\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		sb.WriteString("  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&sb, "% .4g ", m.At(i, j))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("]")
	return sb.String()
}

// Kron returns the Kronecker product a ⊗ b.
func Kron(a, b *Matrix) *Matrix {
	out := New(a.rows*b.rows, a.cols*b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for p := 0; p < b.rows; p++ {
				for q := 0; q < b.cols; q++ {
					out.Set(i*b.rows+p, j*b.cols+q, av*b.At(p, q))
				}
			}
		}
	}
	return out
}
