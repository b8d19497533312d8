package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/workload"
)

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
