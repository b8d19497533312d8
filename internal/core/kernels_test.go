package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, for linalgUseAVX2

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// linalgUseAVX2 is linalg's unexported addMul4 switch, bound by name. linalg
// exports no way to choose a kernel — the two bodies agree bit for bit, so a
// caller has nothing to choose — and the tests below are where that agreement
// is shown on whole optimizations rather than on single rows.
//
//go:linkname linalgUseAVX2 repro/internal/linalg.useAVX2
var linalgUseAVX2 bool

// eachKernel runs fn as a subtest per addMul4 body this machine can run: the
// detected one and, where that is the vector kernel, the Go loop forced.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	detected := linalgUseAVX2
	defer func() { linalgUseAVX2 = detected }()
	paths := []bool{false}
	if detected {
		paths = []bool{true, false}
	}
	for _, vector := range paths {
		linalgUseAVX2 = vector
		t.Run("kernel="+linalg.Kernel(), fn)
	}
}

// fullProductM is how M = QᵀD⁻¹Q was formed before the symmetric kernel: the
// full product, then the average of the two differently-rounded halves.
func fullProductM(dst, a, b *linalg.Matrix) {
	linalg.MulAtBTo(dst, a, b)
	dst.Symmetrize()
}

// feasibleQ projects a random matrix onto the bounded simplex: a Q every
// column of which the optimizer could be standing on.
func feasibleQ(t *testing.T, rng *rand.Rand, m, n int) *opt.MatrixProjection {
	t.Helper()
	z := linalg.Constant(m, 0.7/float64(m))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64() / float64(m) * 4
	}
	proj, err := opt.ProjectMatrix(r, z, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestObjectiveGradMatchesReferenceForm checks objective and gradient against
// the reference form written out with the allocating linalg calls — full
// product + Symmetrize for M, as before the triangle kernel — on random
// feasible Q, uniform and prior-weighted. M's entries moved in the last bits
// (one rounding instead of the mean of two), so this is a tolerance, not a
// bit, comparison: 1e-12 on the objective, 1e-10 on the gradient.
func TestObjectiveGradMatchesReferenceForm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range [][2]int{{12, 3}, {37 * 4, 37}, {256, 64}} {
		m, n := sh[0], sh[1]
		q := feasibleQ(t, rng, m, n).Q
		gram := workload.NewAllRange(n).Gram()
		raw := make([]float64, n)
		for u := range raw {
			raw[u] = 0.2 + rng.Float64()
		}
		weighted, err := normalizePrior(raw, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, prior := range [][]float64{nil, weighted} {
			d := make([]float64, m)
			q.RowSumsTo(d)
			if prior != nil {
				d = q.MulVec(prior)
			}
			dinv := make([]float64, m)
			for i, v := range d {
				dinv[i] = 1 / v
			}
			qs := q.ScaleRowsTo(linalg.New(m, n), dinv)
			var ch linalg.Cholesky
			if err := ch.Factor(linalg.MulAtB(q, qs).Symmetrize()); err != nil {
				t.Fatal(err)
			}
			y := ch.Solve(gram)
			wantObj := y.Trace()
			gamma := linalg.Mul(qs, ch.Solve(y.T()).Symmetrize())
			wantGrad := linalg.New(m, n)
			for o := 0; o < m; o++ {
				h := linalg.Dot(gamma.Row(o), qs.Row(o))
				for u := 0; u < n; u++ {
					hu := h
					if prior != nil {
						hu *= prior[u]
					}
					wantGrad.Set(o, u, -2*gamma.At(o, u)+hu)
				}
			}

			obj, grad, err := objectiveGrad(q, gram, prior)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(obj-wantObj) > 1e-12*math.Abs(wantObj) {
				t.Errorf("%dx%d prior=%v: objective %v, reference form %v", m, n, prior != nil, obj, wantObj)
			}
			if diff := grad.Clone().AddScaled(-1, wantGrad).MaxAbs(); diff > 1e-10*wantGrad.MaxAbs() {
				t.Errorf("%dx%d prior=%v: gradient off the reference form by %g (scale %g)", m, n, prior != nil, diff, wantGrad.MaxAbs())
			}
		}
	}
}

// refGradZ is the column-major back-propagation gradZ replaced, verbatim.
func refGradZ(gz []float64, grad *linalg.Matrix, state []opt.ClipState, numFree []int, e float64) {
	m, n := grad.Rows(), grad.Cols()
	for o := range gz {
		gz[o] = 0
	}
	for u := 0; u < n; u++ {
		meanFree := 0.0
		if numFree[u] > 0 {
			sum := 0.0
			for o := 0; o < m; o++ {
				if state[o*n+u] == opt.Free {
					sum += grad.At(o, u)
				}
			}
			meanFree = sum / float64(numFree[u])
		}
		for o := 0; o < m; o++ {
			switch state[o*n+u] {
			case opt.ClipLow:
				gz[o] += grad.At(o, u) - meanFree
			case opt.ClipHigh:
				gz[o] += e * (grad.At(o, u) - meanFree)
			}
		}
	}
}

// TestGradZMatchesColumnMajorReference: walking rows instead of columns keeps
// both accumulation orders (rows ascending within a column's free sum,
// columns ascending within gz[o]), hence every bit — including columns with
// no free coordinate and stale scratch from a previous call.
func TestGradZMatchesColumnMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	e := math.E
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {12, 3}, {37 * 4, 37}, {67, 129}, {256, 64}} {
		m, n := sh[0], sh[1]
		mean := make([]float64, n)
		for rep := 0; rep < 3; rep++ {
			proj := feasibleQ(t, rng, m, n)
			if rep == 2 {
				// A column with nothing free: every row clipped low.
				for o := 0; o < m; o++ {
					proj.State[o*n] = opt.ClipLow
				}
				proj.NumFree[0] = 0
			}
			grad := linalg.New(m, n)
			for i := range grad.Data() {
				grad.Data()[i] = rng.NormFloat64()
			}
			got, want := make([]float64, m), make([]float64, m)
			gradZ(got, mean, grad, proj.State, proj.NumFree, e)
			refGradZ(want, grad, proj.State, proj.NumFree, e)
			for o := range want {
				if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
					t.Fatalf("%dx%d rep %d: gz[%d] = %v, column-major reference %v", m, n, rep, o, got[o], want[o])
				}
			}
		}
	}
}

func strategyHash(s *strategy.Strategy) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range s.Q.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestSameArithmeticAsFullProduct is the proof that only the symmetric kernel
// moves bits. With M formed the old way (full product + Symmetrize, through
// the four-k MulAtBTo) and everything else as it now is — four-k products and
// solves, the contiguous λ search, the caller-runs-block-0 fan-out, the
// row-walking gradZ — an auto-stepped Optimize returns exactly the strategy
// the commit before those changes returned: the hashes below were printed by
// that commit (e983bf7) on amd64 at GOMAXPROCS 1 and 2. With the symmetric
// kernel on, M differs in its last bits (one rounding per entry instead of
// the mean of two) and a few hundred iterations of a non-convex descent with
// momentum carry that to a different nearby strategy of the same quality:
// the objectives of these cells land 0.03 %–0.64 % from the parent's, on
// either side; 2 % is the tripwire.
func TestSameArithmeticAsFullProduct(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the recorded hashes are amd64's (architectures that fuse multiply-adds round differently, on both commits)")
	}
	cells := []struct {
		w     workload.Workload
		iters int
		obj   float64
		hash  string
	}{
		{workload.NewAllRange(32), 200, 175333.58143241348, "fd5fb515d07fdc9a"},
		{workload.NewPrefix(64), 100, 42003.72841971685, "7fc5336e37f451e8"},
		{workload.NewAllRange(64), 60, 1.9627678106981094e+06, "b68b0fdab9c2e6a7"},
		{workload.NewPrefix(37), 80, 11220.133206726381, "cd702444a8a4aa27"},
	}
	eachKernel(t, func(t *testing.T) {
		for _, procs := range []int{1, 3} {
			old := runtime.GOMAXPROCS(procs)
			for _, c := range cells {
				gram, n := c.w.Gram(), c.w.Domain()
				o := (&Options{Iters: c.iters, Seed: 7}).withDefaults(n)
				ws := NewWorkspace(o.Outputs, n)
				ws.MulM = fullProductM
				res, err := optimize(gram, 1.0, o, ws)
				if err != nil {
					t.Fatal(err)
				}
				if got := strategyHash(res.Strategy); got != c.hash || res.Objective != c.obj {
					t.Errorf("procs=%d %s n=%d: full-product M gives objective %v hash %s, the parent commit gave %v %s",
						procs, c.w.Name(), n, res.Objective, got, c.obj, c.hash)
				}
				if procs != 1 {
					continue
				}
				sym, err := OptimizeGram(gram, 1.0, Options{Iters: c.iters, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(sym.Objective-c.obj) > 0.02*c.obj {
					t.Errorf("procs=%d %s n=%d: symmetric-kernel objective %v strays from the parent's %v", procs, c.w.Name(), n, sym.Objective, c.obj)
				}
			}
			runtime.GOMAXPROCS(old)
		}
	})
}

// TestStepSearchReportsTheCause: with the automatic step, a call that fails
// in every pilot used to say only "step-size search failed for every
// candidate"; the cause must come through, as it does with a fixed step.
func TestStepSearchReportsTheCause(t *testing.T) {
	gram := linalg.Identity(4)
	for _, c := range []struct {
		name string
		o    Options
		want string
	}{
		{"prior length", Options{Prior: []float64{1, 2}}, "prior has 2 entries, domain is 4"},
		{"negative prior", Options{Prior: []float64{1, -1, 1, 1}}, "prior[1] = -1 is invalid"},
		{"init domain", Options{Init: rrStrategy(3, 1.0)}, "init strategy domain 3, want 4"},
	} {
		_, err := OptimizeGram(gram, 1.0, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s, automatic step: error %q does not name the cause %q", c.name, err, c.want)
		}
		fixed := c.o
		fixed.StepSize = 0.1
		if _, err := OptimizeGram(gram, 1.0, fixed); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s, fixed step: error %q does not name the cause %q", c.name, err, c.want)
		}
	}
	// An M singular at initialization (a rank-one warm start) keeps its
	// sentinel through the search.
	flat := linalg.New(8, 4)
	for i := range flat.Data() {
		flat.Data()[i] = 0.125
	}
	if _, err := OptimizeGram(gram, 1.0, Options{Init: strategy.New(flat, 1.0)}); !errors.Is(err, linalg.ErrSingular) {
		t.Errorf("rank-one warm start: error %v is not linalg.ErrSingular", err)
	}
}
