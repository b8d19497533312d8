package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestProductShapes(t *testing.T) {
	p := NewProduct(NewAllRange(4), NewPrefix(3))
	if p.Domain() != 12 {
		t.Fatalf("domain = %d, want 12", p.Domain())
	}
	if p.Queries() != 10*3 {
		t.Fatalf("queries = %d, want 30", p.Queries())
	}
	if p.Name() != "AllRange⊗Prefix" {
		t.Fatalf("name = %q", p.Name())
	}
	a, b := p.a, p.b
	if a.Name() != "AllRange" || b.Name() != "Prefix" {
		t.Fatal("Parts wrong")
	}
}

// productWorkloads are more inputs to the checks of workload_test.go.
func productWorkloads() []*Product {
	return []*Product{
		NewProduct(NewPrefix(3), NewHistogram(4)),
		NewProduct(NewPrefix(3), NewPrefix(4)),
		NewProduct(NewAllRange(3), NewHistogram(3)),
		NewProduct(NewHistogram(2), NewAllRange(4)),
		NewProduct(NewWidthRange(5, 2), NewPrefix(2)),
	}
}

func TestProductGramMatchesExplicit(t *testing.T) {
	for _, p := range productWorkloads() {
		t.Run(p.Name(), func(t *testing.T) {
			checkGram(t, p)
			checkFrobNorm2(t, p)
		})
	}
}

func TestProductMatVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range productWorkloads() {
		t.Run(p.Name(), func(t *testing.T) {
			checkMatVec(t, rng, p)
			checkTMatVec(t, rng, p)
		})
	}
}

// Property: adjoint identity for random product workloads.
func TestProductAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProduct(NewPrefix(1+rng.Intn(4)), NewAllRange(1+rng.Intn(4)))
		x := randVec(rng, p.Domain())
		y := randVec(rng, p.Queries())
		lhs := linalg.Dot(p.MatVec(x), y)
		rhs := linalg.Dot(x, p.TMatVec(y))
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// 2-D range queries: semantic check that the flattened query set answers a
// rectangle sum correctly.
func TestProduct2DRangeSemantics(t *testing.T) {
	n := 4
	p := NewProduct(NewAllRange(n), NewAllRange(n))
	// Data: a single user at grid cell (1, 2) → flattened index 1*4+2.
	x := make([]float64, n*n)
	x[1*n+2] = 1
	ans := p.MatVec(x)
	a := NewAllRange(n)
	// Query (rows [r1,r2]) × (cols [c1,c2]) counts the cell iff the rectangle
	// contains (1,2).
	idx := func(i, j int) int { return i*n - i*(i-1)/2 + (j - i) }
	for r1 := 0; r1 < n; r1++ {
		for r2 := r1; r2 < n; r2++ {
			for c1 := 0; c1 < n; c1++ {
				for c2 := c1; c2 < n; c2++ {
					q := idx(r1, r2)*a.Queries() + idx(c1, c2)
					want := 0.0
					if r1 <= 1 && 1 <= r2 && c1 <= 2 && 2 <= c2 {
						want = 1
					}
					if math.Abs(ans[q]-want) > 1e-12 {
						t.Fatalf("rectangle [%d,%d]x[%d,%d]: got %v, want %v", r1, r2, c1, c2, ans[q], want)
					}
				}
			}
		}
	}
}

// Nuclear norm multiplicativity: σ(A⊗B) = σ(A)·σ(B) pairwise, so the SVD
// lower bound of a product workload is the product of the parts' bounds
// (up to the e^ε factor).
func TestProductNuclearNorm(t *testing.T) {
	a, b := NewPrefix(3), NewHistogram(4)
	p := NewProduct(a, b)
	na, err := linalg.NuclearNormFromGram(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := linalg.NuclearNormFromGram(b.Gram())
	if err != nil {
		t.Fatal(err)
	}
	np, err := linalg.NuclearNormFromGram(p.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(np-na*nb) > 1e-6*(1+na*nb) {
		t.Fatalf("nuclear norm %v, want product %v", np, na*nb)
	}
}
