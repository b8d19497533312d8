package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOneByOneEverything(t *testing.T) {
	a := NewFrom(1, 1, []float64{4})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if x := f.SolveVec([]float64{8}); x[0] != 2 {
		t.Fatalf("1x1 LU solve = %v", x)
	}
	if f.Det() != 4 {
		t.Fatalf("det = %v", f.Det())
	}
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if l := ch.l.At(0, 0); l != 2 {
		t.Fatalf("chol = %v", l)
	}
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 4 || math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-12 {
		t.Fatalf("1x1 eigen = %v %v", vals, vecs)
	}
}

func TestMulToRejectsBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulTo(New(2, 2), New(2, 3), New(3, 3))
}

func TestMulToMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randMatrix(rng, 4, 6)
	b := randMatrix(rng, 6, 3)
	dst := New(4, 3)
	// Pre-fill with garbage: MulTo must overwrite.
	for i := range dst.Data() {
		dst.Data()[i] = 99
	}
	MulTo(dst, a, b)
	if !ApproxEqual(dst, Mul(a, b), 1e-12) {
		t.Fatal("MulTo != Mul")
	}
}

func TestKronIdentityProperty(t *testing.T) {
	// I_a ⊗ I_b = I_{ab}.
	k := Kron(Identity(3), Identity(4))
	if !ApproxEqual(k, Identity(12), 0) {
		t.Fatal("Kron of identities wrong")
	}
}

// Property: Kron is bilinear w.r.t. scaling.
func TestKronScaleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 1+rng.Intn(3), 1+rng.Intn(3))
		b := randMatrix(rng, 1+rng.Intn(3), 1+rng.Intn(3))
		s := rng.NormFloat64()
		left := Kron(a.Clone().Scale(s), b)
		right := Kron(a, b).Scale(s)
		return ApproxEqual(left, right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A⊗B)(x⊗y) = (Ax)⊗(By) for vectors via MulVec.
func TestKronMulVecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 3, 2)
	b := randMatrix(rng, 2, 4)
	x := []float64{1.5, -0.5}
	y := []float64{2, 0, -1, 3}
	xy := make([]float64, 8)
	for i := range x {
		for j := range y {
			xy[i*4+j] = x[i] * y[j]
		}
	}
	got := Kron(a, b).MulVec(xy)
	ax := a.MulVec(x)
	by := b.MulVec(y)
	for i := range ax {
		for j := range by {
			if math.Abs(got[i*2+j]-ax[i]*by[j]) > 1e-10 {
				t.Fatalf("Kron MulVec mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSymEigenHandlesNegativeEigenvalues(t *testing.T) {
	// Indefinite symmetric matrix: eigenvalues 3 and -1.
	a := NewFrom(2, 2, []float64{1, 2, 2, 1})
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]+1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 -1]", vals)
	}
	recon := Mul(vecs.Clone().ScaleCols(vals), vecs.T())
	if !ApproxEqual(recon, a, 1e-9) {
		t.Fatal("indefinite reconstruction failed")
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	vals, vecs, err := SymEigen(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Fatalf("eigenvalues of zero matrix = %v", vals)
		}
	}
	if !ApproxEqual(MulAtB(vecs, vecs), Identity(3), 1e-10) {
		t.Fatal("eigenvectors of zero matrix not orthonormal")
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLargeConditionNumberSolve(t *testing.T) {
	// Hilbert-like ill-conditioned SPD matrix at small n still solves
	// accurately enough for our tolerances.
	n := 6
	h := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	xTrue := Constant(n, 1)
	b := h.MulVec(xTrue)
	ch, err := FactorCholesky(h)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	// Hilbert(6) has condition ~1e7; expect ~9 digits to survive.
	for i := range x {
		if math.Abs(x[i]-1) > 1e-5 {
			t.Fatalf("Hilbert solve x[%d] = %v", i, x[i])
		}
	}
}

func TestStackEmptyAndSingle(t *testing.T) {
	if s := Stack(); s.Rows() != 0 || s.Cols() != 0 {
		t.Fatal("empty Stack should be 0x0")
	}
	a := Identity(2)
	if !ApproxEqual(Stack(a), a, 0) {
		t.Fatal("single Stack should copy")
	}
}

func TestDiagOfPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).DiagOf()
}

func TestScaleRowsColsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(2, 2).ScaleRows([]float64{1}) },
		func() { New(2, 2).ScaleCols([]float64{1}) },
		func() { New(2, 2).SetRow(0, []float64{1}) },
		func() { New(2, 2).SetCol(0, []float64{1}) },
		func() { New(2, 2).AddScaled(1, New(3, 3)) },
		func() { New(2, 2).CopyFrom(New(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPinvPSDZeroMatrix(t *testing.T) {
	p, err := PinvPSD(New(3, 3), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if p.FrobNorm2() != 0 {
		t.Fatal("pinv of zero should be zero")
	}
}

func TestStringRendering(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := New(100, 100)
	if s := big.String(); s != "Matrix(100x100)" {
		t.Fatalf("large matrix should summarize, got %q", s)
	}
}
