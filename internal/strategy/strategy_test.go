package strategy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/workload"
)

// rrStrategy builds the randomized response strategy matrix of Example 2.7.
func rrStrategy(n int, eps float64) *Strategy {
	e := math.Exp(eps)
	q := linalg.New(n, n)
	denom := e + float64(n) - 1
	for o := 0; o < n; o++ {
		for u := 0; u < n; u++ {
			if o == u {
				q.Set(o, u, e/denom)
			} else {
				q.Set(o, u, 1/denom)
			}
		}
	}
	return New(q, eps)
}

// randStrategy builds a random feasible strategy: project random entries into
// the ε-band and normalize columns.
func randStrategy(rng *rand.Rand, m, n int, eps float64) *Strategy {
	e := math.Exp(eps)
	q := linalg.New(m, n)
	base := make([]float64, m)
	for o := range base {
		base[o] = 0.1 + rng.Float64()
	}
	for o := 0; o < m; o++ {
		for u := 0; u < n; u++ {
			q.Set(o, u, base[o]*(1+(e-1)*rng.Float64()))
		}
	}
	// Normalize columns. Column scaling preserves... note: scaling columns by
	// different constants can violate the row ratio bound, so normalize by a
	// shared pattern: instead rescale each column and then verify in tests
	// that Validate catches violations when they occur. For test fixtures we
	// construct matrices that satisfy the bound by clipping.
	for u := 0; u < n; u++ {
		col := q.Col(u)
		s := linalg.Sum(col)
		for o := 0; o < m; o++ {
			q.Set(o, u, col[o]/s)
		}
	}
	// Clip rows into the band [min, e·min] then renormalize once more; after a
	// single pass the matrix is close enough to feasible for tolerance-based
	// validation used in tests.
	for o := 0; o < m; o++ {
		row := q.Row(o)
		lo := linalg.MinVec(row)
		for u := range row {
			if row[u] > e*lo {
				row[u] = e * lo
			}
		}
	}
	for u := 0; u < n; u++ {
		col := q.Col(u)
		s := linalg.Sum(col)
		for o := 0; o < m; o++ {
			q.Set(o, u, col[o]/s)
		}
	}
	return New(q, eps+0.05) // small slack so renormalization can't break validation
}

func TestValidateRandomizedResponse(t *testing.T) {
	for _, eps := range []float64{0.1, 1, 4} {
		s := rrStrategy(5, eps)
		if err := s.Validate(1e-9); err != nil {
			t.Fatalf("RR(ε=%v) should validate: %v", eps, err)
		}
	}
}

func TestValidateRejectsViolations(t *testing.T) {
	// Column not summing to one.
	q := linalg.NewFrom(2, 2, []float64{0.5, 0.5, 0.4, 0.5})
	if err := New(q, 1).Validate(1e-9); err == nil {
		t.Fatal("expected column-sum violation")
	}
	// Ratio violation: identity matrix is only ∞-LDP.
	if err := New(linalg.Identity(3), 1).Validate(1e-9); err == nil {
		t.Fatal("expected ratio violation for identity strategy")
	}
	// Negative entries.
	q2 := linalg.NewFrom(2, 2, []float64{1.2, 0.6, -0.2, 0.4})
	if err := New(q2, 10).Validate(1e-9); err == nil {
		t.Fatal("expected negativity violation")
	}
}

func TestValidateRatioIsTight(t *testing.T) {
	// A matrix exactly at the e^ε boundary must pass.
	eps := 1.0
	e := math.Exp(eps)
	q := linalg.NewFrom(2, 2, []float64{
		e / (e + 1), 1 / (e + 1),
		1 / (e + 1), e / (e + 1),
	})
	if err := New(q, eps).Validate(1e-9); err != nil {
		t.Fatalf("boundary matrix should validate: %v", err)
	}
	// But it must fail for a slightly smaller ε.
	if err := New(q, eps*0.99).Validate(1e-9); err == nil {
		t.Fatal("matrix should not validate at smaller ε")
	}
}

// Rows whose entries all sit below DefaultValidateTol passed an absolute
// ratio test whatever their ratio. A zero beside a positive entry is an
// unbounded ε (output 0 proves the user is not type 1); (10⁻⁷, 10⁻¹²)
// realizes ε = 11.5 where 1 is declared.
func TestValidateRefusesRatiosBelowTheTolerance(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Strategy
	}{
		{"zero beside a positive", New(linalg.NewFrom(2, 2, []float64{
			5e-7, 0,
			1 - 5e-7, 1,
		}), 0.1)},
		{"ratio 10⁵ at ε = 1", New(linalg.NewFrom(2, 2, []float64{
			1e-7, 1e-12,
			1 - 1e-7, 1 - 1e-12,
		}), 1)},
	} {
		if err := tc.s.Validate(DefaultValidateTol); !errors.Is(err, ErrNotLDP) {
			t.Errorf("%s: Validate = %v, want ErrNotLDP", tc.name, err)
		}
		if _, err := NewRandomizer(tc.s); !errors.Is(err, ErrNotLDP) {
			t.Errorf("%s: NewRandomizer = %v, want ErrNotLDP", tc.name, err)
		}
	}
}

func TestReconFactorGivesExactFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randStrategy(rng, 12, 5, 1.0)
	w := workload.Materialize(workload.NewPrefix(5))
	v, err := s.OptimalV(w)
	if err != nil {
		t.Fatal(err)
	}
	// W = VQ must hold exactly (Q has full column rank here).
	if !linalg.ApproxEqual(linalg.Mul(v, s.Q), w, 1e-8) {
		t.Fatal("VQ != W")
	}
}

func TestOptimalVForRRIsInverse(t *testing.T) {
	// Example 3.3: for the Histogram workload, the RR reconstruction is Q⁻¹.
	n := 4
	s := rrStrategy(n, 1.0)
	v, err := s.OptimalV(linalg.Identity(n))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.ApproxEqual(linalg.Mul(v, s.Q), linalg.Identity(n), 1e-8) ||
		!linalg.ApproxEqual(linalg.Mul(s.Q, v), linalg.Identity(n), 1e-8) {
		t.Fatalf("optimal V != Q⁻¹ for RR on Histogram\nV=%v\nQ=%v", v, s.Q)
	}
}

func TestOptimalVIsVarianceOptimal(t *testing.T) {
	// Any other V' with V'Q = W must have at least the variance of the
	// optimal V, column by column of the profile (Theorem 3.10).
	rng := rand.New(rand.NewSource(2))
	s := randStrategy(rng, 10, 4, 1.0)
	w := workload.Materialize(workload.NewHistogram(4))
	v, err := s.OptimalV(w)
	if err != nil {
		t.Fatal(err)
	}
	base := VariancesExplicit(v, s.Q, s.Eps)
	// Perturb V in the null space of Qᵀ: V' = V + Z where ZQ = 0.
	// Build Z from a random vector projected onto null(Qᵀ).
	for trial := 0; trial < 5; trial++ {
		z := linalg.New(4, 10)
		for i := range z.Data() {
			z.Data()[i] = rng.NormFloat64()
		}
		// Project each row of Z onto null space of Qᵀ: z ← z − z Q (QᵀQ)⁻¹ Qᵀ.
		qtq := linalg.Gram(s.Q)
		var ch linalg.Cholesky
		if err := ch.Factor(qtq); err != nil {
			t.Fatal(err)
		}
		sol := ch.Solve(linalg.MulAtB(s.Q, z.T()))
		proj := linalg.Mul(s.Q, sol).T() // rows: z Q (QᵀQ)⁻¹ Qᵀ
		v2 := v.Clone().AddScaled(1, z).AddScaled(-1, proj)
		if !linalg.ApproxEqual(linalg.Mul(v2, s.Q), w, 1e-6) {
			t.Fatal("perturbed V' does not satisfy V'Q = W")
		}
		perturbed := VariancesExplicit(v2, s.Q, s.Eps)
		if perturbed.Avg(1) < base.Avg(1)-1e-9 {
			t.Fatalf("perturbed V has smaller average variance: %v < %v",
				perturbed.Avg(1), base.Avg(1))
		}
	}
}

func TestVarianceMatchesExample37(t *testing.T) {
	// Example 3.7: RR on Histogram has
	// L_worst = L_avg = N(n−1)[n/(e^ε−1)² + 2/(e^ε−1)].
	for _, n := range []int{3, 5, 16} {
		for _, eps := range []float64{0.5, 1.0, 2.0} {
			s := rrStrategy(n, eps)
			vp, err := s.Variances(linalg.Identity(n), n)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Exp(eps)
			nf := float64(n)
			want := (nf - 1) * (nf/((e-1)*(e-1)) + 2/(e-1))
			gotWorst := vp.Worst(1)
			gotAvg := vp.Avg(1)
			if math.Abs(gotWorst-want) > 1e-6*want {
				t.Fatalf("n=%d ε=%v: L_worst = %v, want %v", n, eps, gotWorst, want)
			}
			if math.Abs(gotAvg-want) > 1e-6*want {
				t.Fatalf("n=%d ε=%v: L_avg = %v, want %v", n, eps, gotAvg, want)
			}
		}
	}
}

func TestGramPathMatchesExplicitPath(t *testing.T) {
	// The production variance path (Gram only) must agree with the direct
	// Theorem 3.4 summation using explicit V.
	rng := rand.New(rand.NewSource(3))
	ws := []workload.Workload{
		workload.NewHistogram(5),
		workload.NewPrefix(5),
		workload.NewAllRange(5),
	}
	for _, w := range ws {
		s := randStrategy(rng, 14, 5, 1.0)
		vp, err := s.Variances(w.Gram(), w.Queries())
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.OptimalV(workload.Materialize(w))
		if err != nil {
			t.Fatal(err)
		}
		direct := VariancesExplicit(v, s.Q, s.Eps)
		for u := range vp.PerUser {
			if math.Abs(vp.PerUser[u]-direct.PerUser[u]) > 1e-7*(1+direct.PerUser[u]) {
				t.Fatalf("%s: var(%d) Gram path %v != explicit %v",
					w.Name(), u, vp.PerUser[u], direct.PerUser[u])
			}
		}
	}
}

func TestObjectiveIdentity(t *testing.T) {
	// Theorem 3.9: L_avg(V*,Q) = (N/n)(L(Q) − ‖W‖²_F) when V* is optimal.
	rng := rand.New(rand.NewSource(4))
	w := workload.NewPrefix(6)
	s := randStrategy(rng, 16, 6, 1.0)
	obj, err := s.Objective(w.Gram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := s.Variances(w.Gram(), w.Queries())
	if err != nil {
		t.Fatal(err)
	}
	nUsers := 100.0
	wantAvg := nUsers / 6 * (obj - w.FrobNorm2())
	gotAvg := vp.Avg(nUsers)
	if math.Abs(gotAvg-wantAvg) > 1e-6*(1+math.Abs(wantAvg)) {
		t.Fatalf("L_avg = %v, want (N/n)(L − ‖W‖²) = %v", gotAvg, wantAvg)
	}
}

func TestTheorem51Bounds(t *testing.T) {
	// L_avg ≤ L_worst ≤ e^ε (L_avg + (N/n)‖W‖²_F).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(5)
		w := workload.NewPrefix(n)
		s := randStrategy(rng, 2*n+3, n, 0.5+rng.Float64())
		vp, err := s.Variances(w.Gram(), w.Queries())
		if err != nil {
			t.Fatal(err)
		}
		nUsers := 50.0
		avg, worst := vp.Avg(nUsers), vp.Worst(nUsers)
		if avg > worst+1e-9 {
			t.Fatalf("L_avg %v > L_worst %v", avg, worst)
		}
		// Use the declared (slack-adjusted) ε of the strategy.
		upper := math.Exp(s.Eps) * (avg + nUsers/float64(n)*w.FrobNorm2())
		if worst > upper+1e-6 {
			t.Fatalf("L_worst %v exceeds Theorem 5.1 upper bound %v", worst, upper)
		}
	}
}

func TestSampleComplexityRREample55(t *testing.T) {
	// Example 5.5: RR on Histogram needs N ≥ (n−1)/(αn)·[n/(e^ε−1)² + 2/(e^ε−1)].
	n, eps, alpha := 8, 1.0, 0.01
	s := rrStrategy(n, eps)
	vp, err := s.Variances(linalg.Identity(n), n)
	if err != nil {
		t.Fatal(err)
	}
	e := math.Exp(eps)
	nf := float64(n)
	want := (nf - 1) / (alpha * nf) * (nf/((e-1)*(e-1)) + 2/(e-1))
	got := vp.SampleComplexity(alpha)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("sample complexity = %v, want %v", got, want)
	}
}

func TestOnDataAndDataSampleComplexity(t *testing.T) {
	n := 5
	s := rrStrategy(n, 1.0)
	vp, err := s.Variances(linalg.Identity(n), n)
	if err != nil {
		t.Fatal(err)
	}
	// For RR on Histogram all user types have equal variance, so data-
	// dependent variance equals worst-case regardless of the data.
	x := []float64{10, 0, 0, 5, 85}
	onData := vp.OnData(x)
	if math.Abs(onData-100*vp.PerUser[0]) > 1e-9 {
		t.Fatalf("OnData = %v, want %v", onData, 100*vp.PerUser[0])
	}
	sc := vp.SampleComplexityOnData(x, 0.01)
	scWorst := vp.SampleComplexity(0.01)
	if math.Abs(sc-scWorst) > 1e-9*scWorst {
		t.Fatalf("data sample complexity %v != worst-case %v for symmetric mechanism", sc, scWorst)
	}
}

func TestNormalizedVarianceConsistency(t *testing.T) {
	n := 6
	s := rrStrategy(n, 1.0)
	vp, err := s.Variances(linalg.Identity(n), n)
	if err != nil {
		t.Fatal(err)
	}
	// L_norm(N) = L_worst(N)/(p·N²) (Corollary 5.3), and the sample
	// complexity is the N at which it reaches α.
	const alpha = 0.01
	N := vp.SampleComplexity(alpha)
	if got := vp.Worst(N) / (float64(n) * N * N); math.Abs(got-alpha) > 1e-12 {
		t.Fatalf("normalized variance at the sample complexity = %v, want %v", got, alpha)
	}
}

// Property: variance profile is invariant under row permutations of Q.
func TestVarianceRowPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		m := n + 2 + rng.Intn(6)
		s := randStrategy(rng, m, n, 1.0)
		w := workload.NewPrefix(n)
		vp1, err := s.Variances(w.Gram(), w.Queries())
		if err != nil {
			return false
		}
		// Random permutation of rows.
		perm := rng.Perm(m)
		q2 := linalg.New(m, n)
		for i, pi := range perm {
			copy(q2.Row(i), s.Q.Row(pi))
		}
		vp2, err := New(q2, s.Eps).Variances(w.Gram(), w.Queries())
		if err != nil {
			return false
		}
		for u := range vp1.PerUser {
			if math.Abs(vp1.PerUser[u]-vp2.PerUser[u]) > 1e-7*(1+vp1.PerUser[u]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerDistribution(t *testing.T) {
	s := rrStrategy(4, 1.5)
	sp, err := NewSampler(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const draws = 200000
	counts := make([]float64, 4)
	for i := 0; i < draws; i++ {
		counts[sp.Sample(1, rng)]++
	}
	for o := 0; o < 4; o++ {
		got := counts[o] / draws
		want := s.Q.At(o, 1)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("empirical Pr[o=%d] = %v, want %v", o, got, want)
		}
	}
}

func TestResponseVectorUnbiasedEstimate(t *testing.T) {
	// End-to-end unbiasedness: averaging V·y over many runs approaches Wx.
	n := 3
	s := rrStrategy(n, 2.0)
	w := workload.NewPrefix(n)
	v, err := s.OptimalV(workload.Materialize(w))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSampler(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x := []float64{60, 30, 10}
	truth := w.MatVec(x)
	est := make([]float64, n)
	const trials = 3000
	y := make([]float64, s.Outputs())
	for trial := 0; trial < trials; trial++ {
		clear(y)
		for u, cnt := range x {
			for j := 0; j < int(cnt); j++ {
				y[sp.Sample(u, rng)]++
			}
		}
		linalg.AxpyVec(1.0/trials, v.MulVec(y), est)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 3 {
			t.Fatalf("estimate[%d] = %v, truth %v (bias too large)", i, est[i], truth[i])
		}
	}
}

func TestAliasTableEdgeCases(t *testing.T) {
	// Deterministic column: all mass on one output.
	q := linalg.New(3, 1)
	q.Set(1, 0, 1)
	sp, err := NewSampler(New(q, 100))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if got := sp.Sample(0, rng); got != 1 {
			t.Fatalf("deterministic sampler returned %d", got)
		}
	}
	// Zero column must error.
	q2 := linalg.New(2, 1)
	if _, err := NewSampler(New(q2, 1)); err == nil {
		t.Fatal("expected error for zero-mass column")
	}
	// A negative entry must error however small: clamping it to 0 would put
	// a zero beside a positive in its row, an unbounded ratio.
	q3 := linalg.New(2, 1)
	q3.Set(0, 0, 1)
	q3.Set(1, 0, -1e-13)
	if _, err := NewSampler(New(q3, 1)); err == nil {
		t.Fatal("expected error for a -1e-13 entry")
	}
}
