// Package autodiff implements a small reverse-mode automatic differentiation
// tape over dense matrices. The paper computes the gradients of its
// optimization objective with autograd (Section 4: "it can be easily
// accomplished with automatic differentiation tools"); this package is the Go
// equivalent, and internal/core's hand-derived analytic gradients are
// verified against it. It is test code only: nothing outside this package's
// tests runs the tape.
//
// Supported operations cover exactly what the objective
// L(Q) = tr[(QᵀD⁻¹Q)⁻¹ G] needs: matrix multiplication (including the AᵀB
// form), matrix inverse, trace against a constant, row normalization by row
// sums, addition, and scaling.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/workload"
)

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	nodes []*node
}

// Var is a handle to a matrix-valued node on a tape.
type Var struct {
	tape *Tape
	idx  int
}

type node struct {
	value    *linalg.Matrix
	grad     *linalg.Matrix
	backward func() // accumulates into parents' grads; nil for leaves
	parents  []int
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

func (t *Tape) push(v *linalg.Matrix, parents []int, backward func()) Var {
	t.nodes = append(t.nodes, &node{value: v, parents: parents, backward: backward})
	return Var{tape: t, idx: len(t.nodes) - 1}
}

// Input registers a differentiable leaf with the given value (not copied).
func (t *Tape) Input(m *linalg.Matrix) Var { return t.push(m, nil, nil) }

// Constant registers a non-differentiable leaf.
func (t *Tape) Constant(m *linalg.Matrix) Var { return t.push(m, nil, nil) }

// Value returns the matrix held by v.
func (v Var) Value() *linalg.Matrix { return v.tape.nodes[v.idx].value }

// Grad returns the accumulated gradient of the output with respect to v
// (valid after Backward). It may be nil if v does not influence the output.
func (v Var) Grad() *linalg.Matrix { return v.tape.nodes[v.idx].grad }

func (t *Tape) accum(idx int, g *linalg.Matrix) {
	n := t.nodes[idx]
	if n.grad == nil {
		n.grad = g.Clone()
		return
	}
	n.grad.AddScaled(1, g)
}

// Mul records c = a·b.
func (t *Tape) Mul(a, b Var) Var {
	av, bv := a.Value(), b.Value()
	c := linalg.Mul(av, bv)
	var out Var
	out = t.push(c, []int{a.idx, b.idx}, func() {
		g := out.Grad()
		t.accum(a.idx, linalg.MulABt(g, bv)) // ā += Ḡ bᵀ
		t.accum(b.idx, linalg.MulAtB(av, g)) // b̄ += aᵀ Ḡ
	})
	return out
}

// MulAtB records c = aᵀ·b.
func (t *Tape) MulAtB(a, b Var) Var {
	av, bv := a.Value(), b.Value()
	c := linalg.MulAtB(av, bv)
	var out Var
	out = t.push(c, []int{a.idx, b.idx}, func() {
		g := out.Grad()
		t.accum(a.idx, linalg.MulABt(bv, g)) // ā += b Ḡᵀ
		t.accum(b.idx, linalg.Mul(av, g))    // b̄ += a Ḡ
	})
	return out
}

// Add records c = a + b.
func (t *Tape) Add(a, b Var) Var {
	c := a.Value().Clone().AddScaled(1, b.Value())
	var out Var
	out = t.push(c, []int{a.idx, b.idx}, func() {
		g := out.Grad()
		t.accum(a.idx, g)
		t.accum(b.idx, g)
	})
	return out
}

// Scale records c = s·a for a fixed scalar s.
func (t *Tape) Scale(a Var, s float64) Var {
	c := a.Value().Clone().Scale(s)
	var out Var
	out = t.push(c, []int{a.idx}, func() {
		t.accum(a.idx, out.Grad().Clone().Scale(s))
	})
	return out
}

// Inverse records c = a⁻¹ (square, nonsingular).
func (t *Tape) Inverse(a Var) Var {
	// A⁻¹ = (AᵀA)⁻¹Aᵀ: AᵀA is positive definite for any nonsingular A.
	var ch linalg.Cholesky
	if err := ch.Factor(linalg.Gram(a.Value())); err != nil {
		panic(fmt.Sprintf("autodiff: Inverse: %v", err))
	}
	inv := ch.Solve(a.Value().T())
	var out Var
	out = t.push(inv, []int{a.idx}, func() {
		// ā = −Yᵀ Ḡ Yᵀ with Y = a⁻¹.
		g := out.Grad()
		yt := inv.T()
		t.accum(a.idx, linalg.Mul(linalg.Mul(yt, g), yt).Scale(-1))
	})
	return out
}

// RowNormalize records c = Diag(1/rowsum(a))·a: each row divided by its sum.
// This is the D⁻¹Q building block of the factorization objective.
func (t *Tape) RowNormalize(a Var) Var {
	av := a.Value()
	d := make([]float64, av.Rows())
	av.RowSumsTo(d)
	dinv := make([]float64, len(d))
	for i, v := range d {
		dinv[i] = 1 / v
	}
	c := av.ScaleRowsTo(linalg.New(av.Rows(), av.Cols()), dinv)
	var out Var
	out = t.push(c, []int{a.idx}, func() {
		// Y_{ou} = Q_{ou}/d_o ⇒
		// Q̄_{ou} = Ȳ_{ou}/d_o − (Σ_v Ȳ_{ov} Q_{ov})/d_o².
		g := out.Grad()
		back := linalg.New(av.Rows(), av.Cols())
		for o := 0; o < av.Rows(); o++ {
			grow := g.Row(o)
			arow := av.Row(o)
			brow := back.Row(o)
			dot := linalg.Dot(grow, arow)
			inv := dinv[o]
			corr := dot * inv * inv
			for u := range brow {
				brow[u] = grow[u]*inv - corr
			}
		}
		t.accum(a.idx, back)
	})
	return out
}

// TraceMul records the scalar tr(a·c) for constant matrix c, returned as a
// 1×1 node.
func (t *Tape) TraceMul(a Var, c *linalg.Matrix) Var {
	av := a.Value()
	if av.Rows() != c.Cols() || av.Cols() != c.Rows() {
		panic("autodiff: TraceMul shape mismatch")
	}
	// tr(AC) = Σ_{ij} A_{ij} C_{ji}.
	s := 0.0
	for i := 0; i < av.Rows(); i++ {
		arow := av.Row(i)
		for j, v := range arow {
			s += v * c.At(j, i)
		}
	}
	val := linalg.NewFrom(1, 1, []float64{s})
	var out Var
	out = t.push(val, []int{a.idx}, func() {
		scale := out.Grad().At(0, 0)
		t.accum(a.idx, c.T().Scale(scale)) // d tr(AC)/dA = Cᵀ
	})
	return out
}

// Backward runs reverse-mode accumulation from the scalar output node (which
// must be 1×1), seeding its gradient with 1.
func (t *Tape) Backward(output Var) {
	n := t.nodes[output.idx]
	if n.value.Rows() != 1 || n.value.Cols() != 1 {
		panic("autodiff: Backward output must be a 1×1 scalar node")
	}
	for _, nd := range t.nodes {
		nd.grad = nil
	}
	n.grad = linalg.NewFrom(1, 1, []float64{1})
	// Nodes were pushed in topological order; traverse in reverse.
	for i := output.idx; i >= 0; i-- {
		nd := t.nodes[i]
		if nd.grad == nil || nd.backward == nil {
			continue
		}
		nd.backward()
	}
}

// FactorizationObjective builds the tape program for
// L(Q) = tr[(QᵀD⁻¹Q)⁻¹ G] and returns the scalar output node. Callers run
// tape.Backward(out) and read q.Grad().
func FactorizationObjective(t *Tape, q Var, gram *linalg.Matrix) Var {
	qs := t.RowNormalize(q)       // D⁻¹Q
	m := t.MulAtB(q, qs)          // QᵀD⁻¹Q
	minv := t.Inverse(m)          // (QᵀD⁻¹Q)⁻¹
	return t.TraceMul(minv, gram) // tr(M⁻¹G)
}

func randPositive(rng *rand.Rand, m, n int) *linalg.Matrix {
	q := linalg.New(m, n)
	for i := range q.Data() {
		q.Data()[i] = 0.05 + rng.Float64()
	}
	return q
}

func TestMulGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randPositive(rng, 3, 4)
	b := randPositive(rng, 4, 3)
	tape := NewTape()
	va := tape.Input(a)
	vb := tape.Input(b)
	out := tape.TraceMul(tape.Mul(va, vb), linalg.Identity(3))
	tape.Backward(out)
	// d tr(AB)/dA = Bᵀ, /dB = Aᵀ.
	if !linalg.ApproxEqual(va.Grad(), b.T(), 1e-10) {
		t.Fatal("Mul gradient wrt A wrong")
	}
	if !linalg.ApproxEqual(vb.Grad(), a.T(), 1e-10) {
		t.Fatal("Mul gradient wrt B wrong")
	}
}

func TestInverseGradientFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4
	a := randPositive(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+2) // well-conditioned
	}
	c := randPositive(rng, n, n)

	eval := func(m *linalg.Matrix) float64 {
		tape := NewTape()
		v := tape.Input(m)
		out := tape.TraceMul(tape.Inverse(v), c)
		return out.Value().At(0, 0)
	}
	tape := NewTape()
	v := tape.Input(a)
	out := tape.TraceMul(tape.Inverse(v), c)
	tape.Backward(out)
	g := v.Grad()

	const h = 1e-6
	for trial := 0; trial < 10; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		ap := a.Clone()
		ap.Set(i, j, ap.At(i, j)+h)
		am := a.Clone()
		am.Set(i, j, am.At(i, j)-h)
		fd := (eval(ap) - eval(am)) / (2 * h)
		if math.Abs(fd-g.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("inverse grad (%d,%d): %v vs fd %v", i, j, g.At(i, j), fd)
		}
	}
}

func TestRowNormalizeGradientFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 5, 3
	a := randPositive(rng, m, n)
	c := randPositive(rng, n, m)

	eval := func(mt *linalg.Matrix) float64 {
		tape := NewTape()
		v := tape.Input(mt)
		out := tape.TraceMul(tape.RowNormalize(v), c)
		return out.Value().At(0, 0)
	}
	tape := NewTape()
	v := tape.Input(a)
	out := tape.TraceMul(tape.RowNormalize(v), c)
	tape.Backward(out)
	g := v.Grad()

	const h = 1e-7
	for trial := 0; trial < 15; trial++ {
		i, j := rng.Intn(m), rng.Intn(n)
		ap := a.Clone()
		ap.Set(i, j, ap.At(i, j)+h)
		am := a.Clone()
		am.Set(i, j, am.At(i, j)-h)
		fd := (eval(ap) - eval(am)) / (2 * h)
		if math.Abs(fd-g.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("RowNormalize grad (%d,%d): %v vs fd %v", i, j, g.At(i, j), fd)
		}
	}
}

// The decisive test: the autodiff gradient of the full factorization
// objective equals internal/core's hand-derived gradient.
func TestObjectiveGradientMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, wk := range []workload.Workload{
		workload.NewHistogram(5),
		workload.NewPrefix(5),
		workload.NewAllRange(5),
	} {
		gram := wk.Gram()
		q := randPositive(rng, 11, 5)
		// Normalize columns to resemble a strategy (not required, but keeps
		// the matrices in the regime the optimizer visits).
		for u := 0; u < 5; u++ {
			col := q.Col(u)
			s := linalg.Sum(col)
			for o := 0; o < 11; o++ {
				q.Set(o, u, col[o]/s)
			}
		}

		tape := NewTape()
		v := tape.Input(q)
		out := FactorizationObjective(tape, v, gram)
		tape.Backward(out)
		adGrad := v.Grad()
		adObj := out.Value().At(0, 0)

		coreGrad := linalg.New(11, 5)
		coreObj, err := core.NewWorkspace(11, 5).ObjectiveGrad(q, gram, nil, coreGrad)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(adObj-coreObj) > 1e-8*(1+math.Abs(coreObj)) {
			t.Fatalf("%s: objective %v (autodiff) vs %v (core)", wk.Name(), adObj, coreObj)
		}
		if !linalg.ApproxEqual(adGrad, coreGrad, 1e-6*(1+coreGrad.MaxAbs())) {
			t.Fatalf("%s: autodiff and analytic gradients disagree", wk.Name())
		}
	}
}

func TestAddAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randPositive(rng, 2, 2)
	b := randPositive(rng, 2, 2)
	tape := NewTape()
	va, vb := tape.Input(a), tape.Input(b)
	sum := tape.Add(va, tape.Scale(vb, 3))
	out := tape.TraceMul(sum, linalg.Identity(2))
	tape.Backward(out)
	if !linalg.ApproxEqual(va.Grad(), linalg.Identity(2), 1e-12) {
		t.Fatal("Add gradient wrong")
	}
	if !linalg.ApproxEqual(vb.Grad(), linalg.Identity(2).Scale(3), 1e-12) {
		t.Fatal("Scale gradient wrong")
	}
}

func TestGradReusedInput(t *testing.T) {
	// Gradient accumulation: f(A) = tr(A·A) ⇒ ∇ = 2Aᵀ.
	rng := rand.New(rand.NewSource(6))
	a := randPositive(rng, 3, 3)
	tape := NewTape()
	v := tape.Input(a)
	out := tape.TraceMul(tape.Mul(v, v), linalg.Identity(3))
	tape.Backward(out)
	want := a.T().Scale(2)
	if !linalg.ApproxEqual(v.Grad(), want, 1e-10) {
		t.Fatalf("reused-input gradient wrong:\n%v\nwant\n%v", v.Grad(), want)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	tape := NewTape()
	v := tape.Input(linalg.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tape.Backward(v)
}
