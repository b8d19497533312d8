package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if got := m.Data()[5]; got != 5 {
		t.Fatalf("Data()[5] = %v, want 5 (row-major layout)", got)
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewFrom(2, 2, []float64{1, 2, 3})
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(3)
	d := Diag([]float64{1, 1, 1})
	if !ApproxEqual(id, d, 0) {
		t.Fatal("Identity(3) != Diag(ones)")
	}
	if id.Trace() != 3 {
		t.Fatalf("trace = %v, want 3", id.Trace())
	}
}

func TestTranspose(t *testing.T) {
	m := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !ApproxEqual(mt.T(), m, 0) {
		t.Fatal("double transpose != original")
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewFrom(2, 2, []float64{58, 64, 139, 154})
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 5, 7)
	if !ApproxEqual(Mul(Identity(5), a), a, 1e-12) {
		t.Fatal("I*A != A")
	}
	if !ApproxEqual(Mul(a, Identity(7)), a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMulAtBAndABt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 6, 4)
	b := randMatrix(rng, 6, 3)
	want := Mul(a.T(), b)
	if got := MulAtB(a, b); !ApproxEqual(got, want, 1e-10) {
		t.Fatal("MulAtB != AᵀB")
	}
	c := randMatrix(rng, 5, 4)
	d := randMatrix(rng, 7, 4)
	want2 := Mul(c, d.T())
	if got := MulABt(c, d); !ApproxEqual(got, want2, 1e-10) {
		t.Fatal("MulABt != ABᵀ")
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 8, 5)
	g := Gram(a)
	if !g.IsSymmetric(1e-12) {
		t.Fatal("Gram matrix not symmetric")
	}
	if !ApproxEqual(g, Mul(a.T(), a), 1e-10) {
		t.Fatal("Gram != AᵀA")
	}
}

func TestMulVecAndMulVecT(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := a.MulVec(x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
	y := []float64{1, 2}
	gt := a.MulVecT(y)
	want := []float64{9, 12, 15}
	for i := range want {
		if math.Abs(gt[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT = %v, want %v", gt, want)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{5, 6, 7, 8})
	if got := a.Clone().AddScaled(1, b); got.At(1, 1) != 12 {
		t.Fatalf("AddScaled(1) wrong: %v", got)
	}
	if got := b.Clone().AddScaled(-1, a); got.At(0, 0) != 4 {
		t.Fatalf("AddScaled(-1) wrong: %v", got)
	}
	c := a.Clone().Scale(2)
	if c.At(1, 0) != 6 {
		t.Fatalf("Scale wrong: %v", c)
	}
	// a must be unchanged by Clone+Scale.
	if a.At(1, 0) != 3 {
		t.Fatal("Clone did not isolate storage")
	}
}

func TestRowColOps(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	rs := a.RowSums()
	if rs[0] != 6 || rs[1] != 15 {
		t.Fatalf("RowSums = %v", rs)
	}
	b := a.Clone().ScaleRows([]float64{2, 0.5})
	if b.At(0, 0) != 2 || b.At(1, 2) != 3 {
		t.Fatalf("ScaleRows wrong: %v", b)
	}
	c := a.Clone().ScaleCols([]float64{1, 0, -1})
	if c.At(0, 1) != 0 || c.At(1, 2) != -6 {
		t.Fatalf("ScaleCols wrong: %v", c)
	}
	col := a.Col(1)
	if col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
	a.SetCol(1, []float64{9, 9})
	if a.At(0, 1) != 9 || a.At(1, 1) != 9 {
		t.Fatal("SetCol failed")
	}
	a.SetRow(0, []float64{7, 7, 7})
	if a.At(0, 2) != 7 {
		t.Fatal("SetRow failed")
	}
}

func TestFrobAndMaxAbs(t *testing.T) {
	a := NewFrom(2, 2, []float64{3, 0, 0, -4})
	if a.FrobNorm2() != 25 {
		t.Fatalf("FrobNorm2 = %v, want 25", a.FrobNorm2())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", a.MaxAbs())
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 4, 3})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", a)
	}
	if !a.IsSymmetric(0) {
		t.Fatal("not symmetric after Symmetrize")
	}
}

func TestStack(t *testing.T) {
	a := NewFrom(1, 2, []float64{1, 2})
	b := NewFrom(2, 2, []float64{3, 4, 5, 6})
	s := Stack(a, b)
	if s.Rows() != 3 || s.Cols() != 2 {
		t.Fatalf("Stack shape %dx%d", s.Rows(), s.Cols())
	}
	if s.At(2, 1) != 6 || s.At(0, 0) != 1 {
		t.Fatalf("Stack contents wrong: %v", s)
	}
}

func TestKron(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	id := Identity(2)
	k := Kron(a, id)
	if k.Rows() != 4 || k.Cols() != 4 {
		t.Fatalf("Kron shape %dx%d", k.Rows(), k.Cols())
	}
	if k.At(0, 0) != 1 || k.At(1, 1) != 1 || k.At(0, 2) != 2 || k.At(3, 3) != 4 || k.At(0, 1) != 0 {
		t.Fatalf("Kron contents wrong: %v", k)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(rng, p, q)
		b := randMatrix(rng, q, s)
		left := Mul(a, b).T()
		right := Mul(b.T(), a.T())
		return ApproxEqual(left, right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: trace(AB) = trace(BA).
func TestTraceCyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(r, p, q)
		b := randMatrix(r, q, p)
		return math.Abs(Mul(a, b).Trace()-Mul(b, a).Trace()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, -2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 12 {
		t.Fatalf("Dot = %v, want 12", Dot(x, y))
	}
	if Sum(x) != 2 {
		t.Fatalf("Sum = %v", Sum(x))
	}
	if math.Abs(Norm2(x)-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	z := CloneVec(x)
	AxpyVec(2, y, z)
	if z[0] != 9 || z[1] != 8 || z[2] != 15 {
		t.Fatalf("AxpyVec = %v", z)
	}
	ScaleVec(0.5, z)
	if z[0] != 4.5 {
		t.Fatalf("ScaleVec = %v", z)
	}
	if MaxVec(x) != 3 || MinVec(x) != -2 {
		t.Fatal("Max/Min wrong")
	}
	c := []float64{-1, 0.5, 2}
	ClipScalar(c, 0, 1)
	if c[0] != 0 || c[1] != 0.5 || c[2] != 1 {
		t.Fatalf("ClipScalar = %v", c)
	}
	if cst := Constant(2, 7); cst[1] != 7 {
		t.Fatal("Constant wrong")
	}
}

// Diag returns the square diagonal matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic("linalg: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// ScaleRows multiplies row i by s[i] in place and returns m.
func (m *Matrix) ScaleRows(s []float64) *Matrix {
	if len(s) != m.rows {
		panic("linalg: ScaleRows length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		si := s[i]
		for j := range row {
			row[j] *= si
		}
	}
	return m
}

// RowSums returns the vector of row sums (m * 1).
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.rows)
	m.RowSumsTo(out)
	return out
}

// IsSymmetric reports whether the matrix is symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Stack vertically concatenates the given matrices (which must share a column
// count) into a single matrix.
func Stack(blocks ...*Matrix) *Matrix {
	if len(blocks) == 0 {
		return New(0, 0)
	}
	cols := blocks[0].cols
	rows := 0
	for _, b := range blocks {
		if b.cols != cols {
			panic("linalg: Stack column mismatch")
		}
		rows += b.rows
	}
	out := New(rows, cols)
	at := 0
	for _, b := range blocks {
		copy(out.data[at*cols:], b.data)
		at += b.rows
	}
	return out
}
