package ldp_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	ldp "repro"
)

func TestWorkloadConstructors(t *testing.T) {
	cases := []struct {
		w       ldp.Workload
		n, p    int
		hasName string
	}{
		{ldp.Histogram(8), 8, 8, "Histogram"},
		{ldp.Prefix(8), 8, 8, "Prefix"},
		{ldp.AllRange(8), 8, 36, "AllRange"},
		{ldp.AllMarginals(3), 8, 27, "AllMarginals"},
		{ldp.KWayMarginals(4, 2), 16, 24, "2-WayMarginals"},
		{ldp.Parity(3), 8, 8, "Parity"},
		{ldp.WidthRange(8, 3), 8, 6, "Width3Range"},
	}
	for _, c := range cases {
		if c.w.Domain() != c.n || c.w.Queries() != c.p || c.w.Name() != c.hasName {
			t.Fatalf("%s: got (%d, %d, %q), want (%d, %d, %q)",
				c.hasName, c.w.Domain(), c.w.Queries(), c.w.Name(), c.n, c.p, c.hasName)
		}
	}
}

func TestNewWorkload(t *testing.T) {
	w, err := ldp.NewWorkload("custom", [][]float64{{1, 0, 1}, {0, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if w.Domain() != 3 || w.Queries() != 2 {
		t.Fatal("custom workload shape wrong")
	}
	if _, err := ldp.NewWorkload("bad", [][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := ldp.NewWorkload("empty", nil); err == nil {
		t.Fatal("expected error for empty workload")
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	w := ldp.Prefix(8)
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithIterations(80), ldp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if mech.Name() != "Optimized" {
		t.Fatalf("name = %q", mech.Name())
	}
	if mech.Objective <= 0 || mech.Iterations == 0 || len(mech.History) == 0 {
		t.Fatal("diagnostics missing")
	}
	sc, err := ldp.SampleComplexity(mech, w, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sc <= 0 || math.IsInf(sc, 0) {
		t.Fatalf("sample complexity = %v", sc)
	}
	// The lower bound must hold.
	lb, err := ldp.LowerBoundObjective(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mech.Objective < lb*(1-1e-9) {
		t.Fatalf("objective %v below lower bound %v", mech.Objective, lb)
	}
}

// TestOptimizeCancellation exercises the context checked inside the
// projected-gradient loop: cancelling mid-run must abort promptly with the
// context's error, cancelling up-front must abort before any iteration.
func TestOptimizeCancellation(t *testing.T) {
	w := ldp.Prefix(8)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err := ldp.Optimize(ctx, w, 1.0,
		ldp.WithIterations(5000), ldp.WithSeed(2),
		ldp.WithProgress(func(iter int, obj float64) {
			seen++
			if iter == 3 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen == 0 || seen > 10 {
		t.Fatalf("observed %d iterations before cancellation took effect", seen)
	}

	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := ldp.Optimize(done, w, 1.0, ldp.WithIterations(100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v", err)
	}

	// The warm-start path runs several optimizations; each must honor the
	// context too.
	warm, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := ldp.Optimize(warm, w, 1.0, ldp.WithIterations(50), ldp.WithWarmStarts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("context ignored by the warm-start path: err = %v", err)
	}
}

// TestOptimizeBadPriorNamesTheCause: with the default automatic step the
// pilots fail before the main run does; their error must reach the caller
// (see core's TestStepSearchReportsTheCause).
func TestOptimizeBadPriorNamesTheCause(t *testing.T) {
	_, err := ldp.Optimize(context.Background(), ldp.Prefix(4), 1.0, ldp.WithPrior([]float64{1, 2}))
	if err == nil || !strings.Contains(err.Error(), "prior has 2 entries, domain is 4") {
		t.Fatalf("err = %v, want the prior-length error", err)
	}
}

// TestOptimizeProgress verifies the observer sees the monotone iteration
// stream the optimizer actually ran.
func TestOptimizeProgress(t *testing.T) {
	w := ldp.Histogram(6)
	var iters []int
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithIterations(30), ldp.WithSeed(3),
		ldp.WithProgress(func(iter int, obj float64) {
			if obj <= 0 {
				t.Errorf("iteration %d: non-positive objective %v", iter, obj)
			}
			iters = append(iters, iter)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("progress observer never called")
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] <= iters[i-1] {
			t.Fatalf("iteration stream not increasing: %v", iters)
		}
	}
	if mech.Iterations == 0 {
		t.Fatal("diagnostics missing")
	}
}

func TestBaselineConstructorsViaFacade(t *testing.T) {
	n, eps := 8, 1.0
	w := ldp.Histogram(n)
	mechs := []ldp.Mechanism{
		ldp.RandomizedResponse(n, eps),
		ldp.HadamardResponse(n, eps),
		ldp.Gaussian(n, eps),
	}
	h, err := ldp.Hierarchical(n, eps, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ldp.Fourier(3, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ldp.SubsetSelection(n, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ldp.RAPPOR(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := ldp.MatrixMechanismL1(w, eps)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ldp.MatrixMechanismL2(w, eps)
	if err != nil {
		t.Fatal(err)
	}
	mechs = append(mechs, h, f, ss, rp, l1, l2)
	for _, m := range mechs {
		vp, err := ldp.Evaluate(m, w)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if vp.Worst(1) <= 0 {
			t.Fatalf("%s: non-positive variance", m.Name())
		}
	}
}

func TestClientServerProtocol(t *testing.T) {
	n := 6
	w := ldp.Prefix(n)
	mech, err := ldp.Optimize(context.Background(), w, 2.0,
		ldp.WithIterations(60), ldp.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rz, err := ldp.NewRandomizer(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	client, err := ldp.NewClient(rz)
	if err != nil {
		t.Fatal(err)
	}
	if client.Domain() != n || client.Epsilon() != 2.0 {
		t.Fatal("client metadata wrong")
	}
	agg, err := ldp.NewAggregator(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// 3000 users, types drawn from a fixed histogram.
	x := []float64{900, 600, 500, 400, 350, 250}
	truth := w.MatVec(x)
	for u, cnt := range x {
		for j := 0; j < int(cnt); j++ {
			rep, err := client.Randomize(u, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if col.Count() != 3000 {
		t.Fatalf("count = %v", col.Count())
	}
	est, err := ldp.NewEstimator(agg, w)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := est.Answers(col.Snap())
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(answers[i]-truth[i]) > 0.25*3000 {
			t.Fatalf("answer[%d] = %v, truth %v — far beyond plausible noise", i, answers[i], truth[i])
		}
	}
	consistent, err := est.ConsistentAnswers(col.Snap())
	if err != nil {
		t.Fatal(err)
	}
	// Consistency: answers derive from a non-negative x̂ with Σx̂ = N, so the
	// last prefix (total count) must equal N exactly.
	if math.Abs(consistent[n-1]-3000) > 1e-6 {
		t.Fatalf("consistent total = %v, want 3000", consistent[n-1])
	}
	// Out-of-range report rejected.
	if err := col.Ingest(ldp.Report{Index: 99999}); err == nil {
		t.Fatal("expected range error")
	}
	// Family confusion rejected: a unary report has no meaning here.
	if err := col.Ingest(ldp.Report{Bits: ldp.NewBitVec(n)}); err == nil {
		t.Fatal("expected family error")
	}
}

func TestClientRefusesInvalidStrategy(t *testing.T) {
	// A strategy claiming more privacy than it provides must be rejected.
	w := ldp.Histogram(4)
	mech, err := ldp.Optimize(context.Background(), w, 3.0,
		ldp.WithIterations(30), ldp.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	s := mech.Strategy()
	s.Eps = 0.1 // lie about the guarantee
	if _, err := ldp.NewRandomizer(s); err == nil {
		t.Fatal("randomizer must refuse a strategy that violates its declared ε")
	}
}

// TestValidationToleranceUnified is the regression test for the split
// tolerance bug (NewClient at 1e-7 vs LoadStrategy at 1e-6): any strategy
// that loads must be accepted by the randomizer, because both gates share
// EpsValidationTol.
func TestValidationToleranceUnified(t *testing.T) {
	w := ldp.Histogram(5)
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithIterations(40), ldp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ldp.SaveStrategy(&buf, mech.Strategy()); err != nil {
		t.Fatal(err)
	}
	loaded, err := ldp.LoadStrategy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ldp.NewRandomizer(loaded); err != nil {
		t.Fatalf("loaded strategy refused by randomizer: %v", err)
	}
	// The shared constant is the loader's tolerance: a strategy that passes
	// validation at exactly EpsValidationTol must pass both gates.
	if err := loaded.Validate(ldp.EpsValidationTol); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateProtocolFacade(t *testing.T) {
	w := ldp.Histogram(4)
	mech, err := ldp.Optimize(context.Background(), w, 2.0,
		ldp.WithIterations(40), ldp.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	rz, err := ldp.NewRandomizer(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(mech.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{100, 200, 300, 400}
	est, err := ldp.SimulateProtocol(rz, agg, w, x, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 4 {
		t.Fatal("estimate length wrong")
	}
	total := 0.0
	for _, v := range est {
		total += v
	}
	// Unbiased histogram estimates approximately preserve the total.
	if math.Abs(total-1000) > 300 {
		t.Fatalf("estimated total = %v, want ≈1000", total)
	}

	// The same simulator runs a frequency oracle — and answers a non-trivial
	// workload over its histogram estimate.
	oue, err := ldp.NewOUE(4, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	oest, err := ldp.SimulateProtocol(oue, oue, ldp.Prefix(4), x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(oest) != 4 {
		t.Fatal("oracle estimate length wrong")
	}
	if math.Abs(oest[3]-1000) > 300 {
		t.Fatalf("oracle CDF total = %v, want ≈1000", oest[3])
	}
}

func TestCompetitorsFacade(t *testing.T) {
	w := ldp.Prefix(8)
	ms, err := ldp.Competitors(w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no competitors")
	}
	// The headline comparison at small scale: Optimized ≤ all competitors.
	mech, err := ldp.Optimize(context.Background(), w, 1.0,
		ldp.WithIterations(300), ldp.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	optSC, err := ldp.SampleComplexity(mech, w, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		sc, err := ldp.SampleComplexity(m, w, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if optSC > sc*1.05 {
			t.Fatalf("Optimized (%v) worse than %s (%v) on Prefix", optSC, m.Name(), sc)
		}
	}
}

func TestLowerBoundFacade(t *testing.T) {
	lb, err := ldp.LowerBoundSampleComplexity(ldp.Parity(3), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatalf("Parity lower bound = %v, want positive", lb)
	}
}

func TestFrequencyOracleFacade(t *testing.T) {
	n := 2048 // far beyond any explicit strategy matrix
	olh, err := ldp.NewOLH(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	x[7], x[100], x[2000] = 1000, 700, 500
	est, err := ldp.SimulateProtocol(olh, olh, ldp.Histogram(n), x, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The three heavy cells must stand far above the noise floor
	// (per-cell std here is ≈ √(2200·3.7) ≈ 90).
	for _, v := range []int{7, 100, 2000} {
		if est[v] < 200 {
			t.Fatalf("cell %d estimate %v too low", v, est[v])
		}
	}
	oue, err := ldp.NewOUE(64, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ldp.NewRAPPOROracle(64, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if oue.VariancePerUser() >= rp.VariancePerUser() {
		t.Fatal("OUE should beat RAPPOR in variance")
	}
}

// TestBuildInfoNamesTheKernel: every -version line ends with which inner-loop
// kernel this machine selected, the fact a recorded timing needs beside it.
func TestBuildInfoNamesTheKernel(t *testing.T) {
	k := ldp.BuildInfo().Kernel
	if k != "avx2" && k != "go" {
		t.Fatalf("BuildInfo().Kernel = %q, want avx2 or go", k)
	}
	if v := ldp.VersionString(); !strings.HasSuffix(v, " kernel="+k) {
		t.Fatalf("VersionString() = %q does not end with the kernel %q", v, k)
	}
}

// TestSampleComplexityConcurrent: a mechanism is a value several goroutines
// may evaluate at once — the experiment harness scores one *Optimized on many
// workloads in parallel — and its reconstruction (B for a factorization, A⁺
// for an additive mechanism) is filled on first use. Four goroutines, each
// with its own workloads, must read the same numbers a serial caller reads;
// under -race this is what holds that first fill to one synchronized write.
func TestSampleComplexityConcurrent(t *testing.T) {
	const n = 8
	opt, err := ldp.Optimize(context.Background(), ldp.Prefix(n), 1.0, ldp.WithIterations(20), ldp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	competitors, err := ldp.Competitors(ldp.Prefix(n), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	workloads := func() []ldp.Workload { return []ldp.Workload{ldp.Prefix(n), ldp.AllRange(n)} }
	for _, m := range append([]ldp.Mechanism{opt}, competitors...) {
		const goroutines = 4
		got := make([][]float64, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, w := range workloads() {
					sc, err := ldp.SampleComplexity(m, w, 0.01)
					if err != nil {
						t.Errorf("%s on %s: %v", m.Name(), w.Name(), err)
						return
					}
					got[g] = append(got[g], sc)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, w := range workloads() {
			want, err := ldp.SampleComplexity(m, w, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for g := range got {
				if got[g][i] != want {
					t.Errorf("%s on %s: goroutine %d read %v, a serial caller reads %v", m.Name(), w.Name(), g, got[g][i], want)
				}
			}
		}
	}
}
