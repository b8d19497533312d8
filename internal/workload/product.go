package workload

import (
	"fmt"

	"repro/internal/linalg"
)

// Product is the Kronecker product of two workloads: over the product domain
// U₁ × U₂ (flattened row-major, u = u₁·n₂ + u₂), it asks every pairwise
// combination of a query from W₁ and a query from W₂ — the standard way to
// express multi-dimensional workloads (e.g. 2-D range queries are
// Product(AllRange, AllRange)).
//
// Product preserves the library's implicit-representation economics:
// Gram(W₁⊗W₂) = Gram(W₁) ⊗ Gram(W₂), and MatVec factors into the parts'
// operators applied along each axis, so a 2-D all-range workload over a
// 64×64 grid (4 160 000 queries) never materializes anything larger than
// its 4096×4096 Gram matrix.
type Product struct {
	a, b Workload
	gramCache
}

// NewProduct returns the Kronecker product workload a ⊗ b.
func NewProduct(a, b Workload) *Product {
	return &Product{a: a, b: b}
}

func (p *Product) Name() string { return fmt.Sprintf("%s⊗%s", p.a.Name(), p.b.Name()) }

// Domain returns n₁·n₂.
func (p *Product) Domain() int { return p.a.Domain() * p.b.Domain() }

// Queries returns p₁·p₂.
func (p *Product) Queries() int { return p.a.Queries() * p.b.Queries() }

// Gram returns Gram(a) ⊗ Gram(b): (A⊗B)ᵀ(A⊗B) = (AᵀA)⊗(BᵀB).
func (p *Product) Gram() *linalg.Matrix {
	return p.cached(func() *linalg.Matrix {
		return linalg.Kron(p.a.Gram(), p.b.Gram())
	})
}

// FrobNorm2 returns ‖A‖²_F · ‖B‖²_F.
func (p *Product) FrobNorm2() float64 { return p.a.FrobNorm2() * p.b.FrobNorm2() }

// MatVec computes (A⊗B)x by reshaping x into an n₁×n₂ matrix X and applying
// the parts along each axis: result = A·X·Bᵀ flattened, using only the
// parts' implicit operators.
func (p *Product) MatVec(x []float64) []float64 {
	n1, n2 := p.a.Domain(), p.b.Domain()
	p1, p2 := p.a.Queries(), p.b.Queries()
	checkLen(len(x), n1*n2)
	// Step 1: apply B to every row of X: T (n1 × p2).
	t := make([]float64, n1*p2)
	for i := 0; i < n1; i++ {
		row := p.b.MatVec(x[i*n2 : (i+1)*n2])
		copy(t[i*p2:(i+1)*p2], row)
	}
	// Step 2: apply A to every column of T: out (p1 × p2).
	out := make([]float64, p1*p2)
	col := make([]float64, n1)
	for j := 0; j < p2; j++ {
		for i := 0; i < n1; i++ {
			col[i] = t[i*p2+j]
		}
		res := p.a.MatVec(col)
		for i := 0; i < p1; i++ {
			out[i*p2+j] = res[i]
		}
	}
	return out
}

// TMatVec computes (A⊗B)ᵀy via the parts' transposed operators.
func (p *Product) TMatVec(y []float64) []float64 {
	n1, n2 := p.a.Domain(), p.b.Domain()
	p1, p2 := p.a.Queries(), p.b.Queries()
	checkLen(len(y), p1*p2)
	// Step 1: apply Bᵀ to every row of Y: T (p1 × n2).
	t := make([]float64, p1*n2)
	for i := 0; i < p1; i++ {
		row := p.b.TMatVec(y[i*p2 : (i+1)*p2])
		copy(t[i*n2:(i+1)*n2], row)
	}
	// Step 2: apply Aᵀ to every column of T: out (n1 × n2).
	out := make([]float64, n1*n2)
	col := make([]float64, p1)
	for j := 0; j < n2; j++ {
		for i := 0; i < p1; i++ {
			col[i] = t[i*n2+j]
		}
		res := p.a.TMatVec(col)
		for i := 0; i < n1; i++ {
			out[i*n2+j] = res[i]
		}
	}
	return out
}
