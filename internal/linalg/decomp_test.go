package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSPD(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n+3, n)
	g := Gram(a)
	// Regularize slightly to ensure strict positive definiteness.
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+0.1)
	}
	return g
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		f, err := FactorLU(a)
		if err != nil {
			t.Fatalf("FactorLU: %v", err)
		}
		x := f.SolveVec(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 6, 6)
	b := randMatrix(rng, 6, 4)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(a, x), b, 1e-8) {
		t.Fatal("AX != B")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix(rng, 8, 8)
	ai, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(a, ai), Identity(8), 1e-8) {
		t.Fatal("A A⁻¹ != I")
	}
	if !ApproxEqual(Mul(ai, a), Identity(8), 1e-8) {
		t.Fatal("A⁻¹ A != I")
	}
}

func TestLUSingular(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUDet(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-2)) > 1e-12 {
		t.Fatalf("det = %v, want -2", f.Det())
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		ch, err := FactorCholesky(a)
		if err != nil {
			t.Fatalf("FactorCholesky: %v", err)
		}
		l := ch.l
		if !ApproxEqual(MulABt(l, l), a, 1e-8) {
			t.Fatal("L Lᵀ != A")
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				t.Fatalf("Ax != b at %d: %v vs %v", i, ax[i], b[i])
			}
		}
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 7)
	b := randMatrix(rng, 7, 3)
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	if !ApproxEqual(Mul(a, x), b, 1e-8) {
		t.Fatal("AX != B")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for indefinite matrix, got %v", err)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Reconstruction check.
	recon := Mul(vecs.Clone().ScaleCols(vals), vecs.T())
	if !ApproxEqual(recon, a, 1e-10) {
		t.Fatal("V Λ Vᵀ != A")
	}
}

func TestSymEigenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a := randSPD(rng, n)
		vals, vecs, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// Orthonormality.
		if !ApproxEqual(MulAtB(vecs, vecs), Identity(n), 1e-8) {
			t.Fatal("eigenvectors not orthonormal")
		}
		// Reconstruction.
		recon := Mul(vecs.Clone().ScaleCols(vals), vecs.T())
		if !ApproxEqual(recon, a, 1e-7*(1+a.MaxAbs())) {
			t.Fatal("V Λ Vᵀ != A")
		}
		// Trace preservation.
		if math.Abs(Sum(vals)-a.Trace()) > 1e-7*(1+math.Abs(a.Trace())) {
			t.Fatalf("Σλ=%v != trace=%v", Sum(vals), a.Trace())
		}
	}
}

func TestPinvPSDFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPD(rng, 6)
	p, err := PinvPSD(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(a, p), Identity(6), 1e-7) {
		t.Fatal("A A⁺ != I for full-rank PSD matrix")
	}
}

func TestPinvPSDRankDeficient(t *testing.T) {
	// A = v vᵀ has rank 1; pinv = v vᵀ / ||v||⁴.
	v := []float64{1, 2, 2}
	n := len(v)
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, v[i]*v[j])
		}
	}
	p, err := PinvPSD(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	// Penrose conditions: A P A = A, P A P = P, (AP)ᵀ=AP, (PA)ᵀ=PA.
	ap := Mul(a, p)
	if !ApproxEqual(Mul(ap, a), a, 1e-8) {
		t.Fatal("A P A != A")
	}
	if !ApproxEqual(Mul(Mul(p, a), p), p, 1e-8) {
		t.Fatal("P A P != P")
	}
	if !ap.IsSymmetric(1e-8) {
		t.Fatal("(AP) not symmetric")
	}
}

func TestSingularValues(t *testing.T) {
	// For a diagonal-ish rectangular matrix the singular values are known.
	w := New(3, 2)
	w.Set(0, 0, 3)
	w.Set(1, 1, 4)
	sv, err := SingularValues(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv[0]-4) > 1e-9 || math.Abs(sv[1]-3) > 1e-9 {
		t.Fatalf("singular values = %v, want [4 3]", sv)
	}
}

func TestSingularValuesWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := randMatrix(rng, 3, 8)
	sv1, err := SingularValues(w)
	if err != nil {
		t.Fatal(err)
	}
	sv2, err := SingularValues(w.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(sv1[i]-sv2[i]) > 1e-8 {
			t.Fatalf("singular values differ between W and Wᵀ: %v vs %v", sv1, sv2)
		}
	}
}

func TestSolvePSDFallsBackToPinv(t *testing.T) {
	// Rank-deficient PSD system: minimum-norm solution expected.
	a := NewFrom(2, 2, []float64{1, 1, 1, 1})
	b := NewFrom(2, 1, []float64{2, 2})
	x, err := SolvePSD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(a, x), b, 1e-8) {
		t.Fatal("AX != B in rank-deficient solve")
	}
	// Minimum-norm solution is [1, 1].
	if math.Abs(x.At(0, 0)-1) > 1e-8 || math.Abs(x.At(1, 0)-1) > 1e-8 {
		t.Fatalf("not minimum-norm: %v", x)
	}
}

// Property: Cholesky solve and LU solve agree on SPD systems.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		b := randMatrix(rng, n, 2)
		ch, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		x1 := ch.Solve(b)
		x2, err := Solve(a, b)
		if err != nil {
			return false
		}
		return ApproxEqual(x1, x2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: singular values of A match sqrt of eigenvalues of Gram(A).
func TestSingularValuesGramProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 2+rng.Intn(6), 2+rng.Intn(6)
		a := randMatrix(rng, r, c)
		sv, err := SingularValues(a)
		if err != nil {
			return false
		}
		sv2, err := SingularValuesFromGram(Gram(a))
		if err != nil {
			return false
		}
		k := len(sv)
		if len(sv2) < k {
			k = len(sv2)
		}
		for i := 0; i < k; i++ {
			if math.Abs(sv[i]-sv2[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNuclearNormFromGram(t *testing.T) {
	// Identity: all singular values 1, nuclear norm = n.
	nn, err := NuclearNormFromGram(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nn-5) > 1e-9 {
		t.Fatalf("nuclear norm = %v, want 5", nn)
	}
}

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

// SingularValues returns the singular values of a general matrix in descending
// order, computed as square roots of the eigenvalues of the smaller Gram
// matrix (WᵀW or WWᵀ). Negative round-off eigenvalues are clamped to zero.
func SingularValues(w *Matrix) ([]float64, error) {
	var gram *Matrix
	if w.rows >= w.cols {
		gram = MulAtB(w, w)
	} else {
		gram = MulABt(w, w)
	}
	return SingularValuesFromGram(gram)
}

// SolvePSD solves A X = B for symmetric positive (semi)definite A. It first
// attempts Cholesky; if A is numerically singular it falls back to the
// eigen-based pseudo-inverse. The returned matrix is the minimum-norm solution
// in the singular case.
func SolvePSD(a, b *Matrix) (*Matrix, error) {
	if ch, err := FactorCholesky(a); err == nil {
		return ch.Solve(b), nil
	}
	pinv, err := PinvPSD(a, 1e-12)
	if err != nil {
		return nil, err
	}
	return Mul(pinv, b), nil
}
