package opt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/linalg"
)

// sweepLambda is the O(m log m) sorted-sweep reference for the breakpoint
// search (the seed implementation), kept as an oracle for the
// quickselect-style solveLambda.
func sweepLambda(r, z []float64, e float64) float64 {
	type breakpoint struct {
		lam   float64
		slope float64
	}
	m := len(r)
	bps := make([]breakpoint, 0, 2*m)
	sumZ := 0.0
	for o := 0; o < m; o++ {
		sumZ += z[o]
		bps = append(bps,
			breakpoint{lam: z[o] - r[o], slope: +1},
			breakpoint{lam: e*z[o] - r[o], slope: -1},
		)
	}
	sort.Slice(bps, func(i, j int) bool { return bps[i].lam < bps[j].lam })
	total := sumZ
	slope := 0.0
	prev := math.Inf(-1)
	for _, bp := range bps {
		if slope > 0 {
			needed := (1 - total) / slope
			if prev+needed <= bp.lam {
				return prev + needed
			}
			total += slope * (bp.lam - prev)
		}
		slope += bp.slope
		prev = bp.lam
	}
	return prev
}

func clipSum(r, z []float64, e, lam float64) float64 {
	s := 0.0
	for o := range r {
		v := r[o] + lam
		if v < z[o] {
			v = z[o]
		} else if v > e*z[o] {
			v = e * z[o]
		}
		s += v
	}
	return s
}

// TestSolveLambdaMatchesSweep fuzzes the pivoting solver against the sorted
// sweep it replaced: the shifts must agree to round-off, and both must
// satisfy the sum constraint Σ clip(r+λ, z, ez) = 1.
func TestSolveLambdaMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(80)
		eps := 0.2 + 3*rng.Float64()
		e := math.Exp(eps)
		z := make([]float64, m)
		// Feasible z: Σz uniform in (e^-eps, 1).
		target := math.Exp(-eps) + rng.Float64()*(1-math.Exp(-eps))
		s := 0.0
		for o := range z {
			z[o] = rng.Float64()
			s += z[o]
		}
		for o := range z {
			z[o] *= target / s
		}
		r := make([]float64, m)
		for o := range r {
			r[o] = rng.NormFloat64()
		}
		got := lambdaOf(r, z, e)
		want := sweepLambda(r, z, e)
		scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
		if math.Abs(got-want) > 1e-9*scale {
			t.Fatalf("trial %d (m=%d, eps=%g): solveLambda = %v, sweep = %v", trial, m, eps, got, want)
		}
		if f := clipSum(r, z, e, got); math.Abs(f-1) > 1e-9 {
			t.Fatalf("trial %d: Σ clip = %v at λ = %v, want 1", trial, f, got)
		}
	}
}

// TestSolveLambdaNonFiniteTerminates is the regression test for the
// narrowing loop hanging on non-finite input: a NaN or Inf coordinate never
// retires from the active set, so solveLambda must detect it up front and
// return NaN (which downstream turns into a NaN column the optimizer's
// blow-up safeguard absorbs) rather than spin forever like an unguarded
// quickselect would.
func TestSolveLambdaNonFiniteTerminates(t *testing.T) {
	z := []float64{0.2, 0.2, 0.2, 0.2}
	for _, r := range [][]float64{
		{0.1, math.NaN(), 0.3, 0.2},
		{0.1, math.Inf(1), 0.3, 0.2},
		{0.1, math.Inf(-1), 0.3, 0.2},
	} {
		done := make(chan float64, 1)
		go func() {
			done <- lambdaOf(r, z, math.E)
		}()
		select {
		case lam := <-done:
			if !math.IsNaN(lam) {
				t.Errorf("r=%v: got λ=%v, want NaN", r, lam)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("r=%v: solveLambda did not terminate", r)
		}
	}
	// The matrix-level entry point must terminate too (and the NaN column it
	// produces is what core's blow-up safeguard handles).
	rm := linalg.New(4, 2)
	rm.Set(1, 0, math.NaN())
	var out MatrixProjection
	var ws Scratch
	if err := ProjectMatrixInto(&out, &ws, rm, z, 1.0); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Q.At(0, 0)) {
		t.Errorf("NaN column 0 projected to %v, want NaN propagation", out.Q.At(0, 0))
	}
	if math.IsNaN(out.Q.At(0, 1)) {
		t.Error("finite column 1 was polluted by column 0's NaN")
	}
}

// TestSolveLambdaConstantZ exercises the heavily tied regime (all z equal —
// the optimizer's first iteration) where breakpoint ties are systematic.
func TestSolveLambdaConstantZ(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, m := range []int{1, 2, 16, 256} {
		eps := 1.0
		e := math.Exp(eps)
		z := make([]float64, m)
		for o := range z {
			z[o] = 0.7 / float64(m)
		}
		r := make([]float64, m)
		for o := range r {
			r[o] = rng.Float64()
		}
		got := lambdaOf(r, z, e)
		want := sweepLambda(r, z, e)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("m=%d: solveLambda = %v, sweep = %v", m, got, want)
		}
		if f := clipSum(r, z, e, got); math.Abs(f-1) > 1e-9 {
			t.Fatalf("m=%d: Σ clip = %v, want 1", m, f)
		}
	}
}

// lambdaOf is solveLambda with fresh scratch.
func lambdaOf(r, z []float64, e float64) float64 {
	return solveLambda(make([]float64, len(r)), make([]float64, len(r)), r, z, e)
}

// refSolveLambda is the index-array narrowing solveLambda replaced, kept
// verbatim (two-branch clip, retirement through act) as the reference the
// contiguous search must reproduce to the bit.
func refSolveLambda(act []int32, r, z []float64, e float64) float64 {
	pivotIn := func(o int32, a, b float64) float64 {
		lo := z[o] - r[o]
		if lo > a && lo < b {
			return lo
		}
		return e*z[o] - r[o]
	}
	m := len(r)
	act = act[:m]
	for o := range act {
		act[o] = int32(o)
		if lo := z[o] - r[o]; math.IsNaN(lo) || math.IsInf(lo, 0) {
			return math.NaN()
		}
		if hi := e*z[o] - r[o]; math.IsNaN(hi) || math.IsInf(hi, 0) {
			return math.NaN()
		}
	}
	a, b := math.Inf(-1), math.Inf(1)
	base := 0.0
	nfree := 0
	for len(act) > 0 {
		p := pivotIn(act[0], a, b)
		if len(act) > 2 {
			p1 := pivotIn(act[len(act)/2], a, b)
			p2 := pivotIn(act[len(act)-1], a, b)
			if p > p1 {
				p, p1 = p1, p
			}
			if p1 > p2 {
				p1 = p2
			}
			if p < p1 {
				p = p1
			}
		}
		f := base + float64(nfree)*p
		for _, o := range act {
			v := r[o] + p
			if zo := z[o]; v < zo {
				v = zo
			} else if hi := e * zo; v > hi {
				v = hi
			}
			f += v
		}
		if f >= 1 {
			b = p
		} else {
			a = p
		}
		w := 0
		for _, o := range act {
			lo := z[o] - r[o]
			hi := e*z[o] - r[o]
			switch {
			case lo >= b:
				base += z[o]
			case hi <= a:
				base += e * z[o]
			case lo <= a && hi >= b:
				base += r[o]
				nfree++
			default:
				act[w] = o
				w++
			}
		}
		act = act[:w]
	}
	if nfree > 0 {
		lam := (1 - base) / float64(nfree)
		if lam < a {
			lam = a
		} else if lam > b {
			lam = b
		}
		return lam
	}
	if !math.IsInf(a, -1) {
		return a
	}
	return b
}

// TestSolveLambdaMatchesIndexArrayReference: same pivots, same accumulation
// order, same λ to the bit — on the generators above (random feasible z,
// constant z), on tied and duplicated coordinates, on columns where every
// coordinate ends clipped (Σz = 1, e·Σz = 1: the degenerate flat interval),
// on zero bounds, and on the non-finite bail-out. r and z must come back
// untouched (the search works on its own copies).
func TestSolveLambdaMatchesIndexArrayReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	check := func(name string, r, z []float64, e float64) {
		t.Helper()
		r0, z0 := append([]float64(nil), r...), append([]float64(nil), z...)
		got := lambdaOf(r, z, e)
		want := refSolveLambda(make([]int32, len(r)), r, z, e)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s (m=%d, e=%g): solveLambda = %v (%#x), index-array reference = %v (%#x)",
				name, len(r), e, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for o := range r {
			if math.Float64bits(r[o]) != math.Float64bits(r0[o]) || math.Float64bits(z[o]) != math.Float64bits(z0[o]) {
				t.Fatalf("%s: solveLambda modified its input at %d", name, o)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(300)
		eps := 0.05 + 4*rng.Float64()
		e := math.Exp(eps)
		z := feasibleZ(rng, m, eps)
		r := make([]float64, m)
		for o := range r {
			r[o] = rng.NormFloat64()
		}
		check("random", r, z, e)

		// Ties: few distinct values, so breakpoints coincide with pivots.
		for o := range r {
			r[o] = float64(rng.Intn(3)) / 4
		}
		check("tied r", r, z, e)
		zc := make([]float64, m)
		for o := range zc {
			zc[o] = 0.7 / float64(m)
		}
		check("constant z, tied r", r, zc, e)
		if m > 1 {
			z[rng.Intn(m)] = 0 // a zero bound: lo == hi breakpoints
			check("zero bound", r, z, e)
		}

		// Every coordinate clipped: Σz = 1 (all low) and e·Σz = 1 (all high).
		for o := range zc {
			zc[o] = 1 / float64(m)
		}
		check("all clipped low", r, zc, e)
		for o := range zc {
			zc[o] = 1 / (e * float64(m))
		}
		check("all clipped high", r, zc, e)
	}
	z := []float64{0.2, 0.2, 0.2, 0.2}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := range z {
			r := []float64{0.1, 0.4, 0.3, 0.2}
			r[at] = bad
			check("non-finite r", r, z, math.E)
		}
	}
	check("overflowing e·z", []float64{0.1, 0.2}, []float64{0.5, 0.4}, math.MaxFloat64)
}
