package hadamard

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {511, 512}, {513, 1024},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Fatalf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMatrixIsHadamard(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		h, err := Matrix(k)
		if err != nil {
			t.Fatal(err)
		}
		if !IsHadamard(h, 1e-12) {
			t.Fatalf("Matrix(%d) is not Hadamard", k)
		}
	}
	if _, err := Matrix(6); err == nil {
		t.Fatal("expected error for non-power-of-two size")
	}
	if _, err := Matrix(0); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestSylvesterRecursion(t *testing.T) {
	// H_{2k} = [[H_k, H_k], [H_k, −H_k]].
	k := 8
	h2, err := Matrix(2 * k)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Matrix(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if h2.At(i, j) != h.At(i, j) || h2.At(i, j+k) != h.At(i, j) ||
				h2.At(i+k, j) != h.At(i, j) || h2.At(i+k, j+k) != -h.At(i, j) {
				t.Fatalf("Sylvester recursion violated at (%d,%d)", i, j)
			}
		}
	}
}

func TestFWHTMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 8, 64} {
		x := make([]float64, k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		h, err := Matrix(k)
		if err != nil {
			t.Fatal(err)
		}
		want := h.MulVec(x)
		got := linalg.CloneVec(x)
		if err := FWHT(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("k=%d: FWHT[%d] = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
	if err := FWHT(make([]float64, 3)); err == nil {
		t.Fatal("expected error for non-power-of-two length")
	}
}

// Property: H·H = nI, so FWHT(FWHT(x))/n = x.
func TestFWHTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 << (1 + rng.Intn(6))
		x := make([]float64, k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := linalg.CloneVec(x)
		if err := FWHT(y); err != nil {
			return false
		}
		if err := FWHT(y); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-y[i]/float64(k)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Parseval: FWHT preserves energy up to the factor n.
func TestFWHTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 32
	x := make([]float64, k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	before := linalg.Dot(x, x)
	if err := FWHT(x); err != nil {
		t.Fatal(err)
	}
	after := linalg.Dot(x, x)
	if math.Abs(after-float64(k)*before) > 1e-9*after {
		t.Fatalf("Parseval violated: %v vs %v·%d", after, before, k)
	}
}

func TestIsHadamardRejects(t *testing.T) {
	// Non-square.
	if IsHadamard(linalg.New(2, 3), 1e-9) {
		t.Fatal("non-square accepted")
	}
	// ±1 but not orthogonal.
	m := linalg.NewFrom(2, 2, []float64{1, 1, 1, 1})
	if IsHadamard(m, 1e-9) {
		t.Fatal("non-orthogonal accepted")
	}
	// Orthogonal but not ±1.
	if IsHadamard(linalg.Identity(2), 1e-9) {
		t.Fatal("non-±1 accepted")
	}
}

// IsHadamard reports whether m is a ±1 matrix with pairwise-orthogonal rows.
func IsHadamard(m *linalg.Matrix, tol float64) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	n := m.Rows()
	for _, v := range m.Data() {
		if v != 1 && v != -1 {
			return false
		}
	}
	g := linalg.MulABt(m, m)
	return linalg.ApproxEqual(g, linalg.Identity(n).Scale(float64(n)), tol)
}
