package freqoracle

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/protocol"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// run executes a full protocol for integer data vector x through the shared
// simulator, driving the oracle as both protocol halves, and returns the
// estimated counts.
func run(o Oracle, x []float64, seed int64) ([]float64, error) {
	p, err := simulate.New(o, o, workload.NewHistogram(o.Domain()))
	if err != nil {
		return nil, err
	}
	out, err := p.Run(x, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return out.XEstimate, nil
}

func oracles(t *testing.T, n int, eps float64) []Oracle {
	t.Helper()
	rp, err := NewRAPPOR(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	oue, err := NewOUE(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	olh, err := NewOLH(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	return []Oracle{rp, oue, olh}
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewRAPPOR(0, 1); err == nil {
		t.Fatal("expected error for empty domain")
	}
	if _, err := NewOUE(0, 1); err == nil {
		t.Fatal("expected error for empty domain")
	}
	if _, err := NewOLH(0, 1); err == nil {
		t.Fatal("expected error for empty domain")
	}
	// ε must be a positive finite number within the supported range — NaN or
	// ±Inf poison the flip probabilities (found by FuzzLoadOracle).
	for _, mk := range map[string]func(int, float64) error{
		"RAPPOR": func(n int, e float64) error { _, err := NewRAPPOR(n, e); return err },
		"OUE":    func(n int, e float64) error { _, err := NewOUE(n, e); return err },
		"OLH":    func(n int, e float64) error { _, err := NewOLH(n, e); return err },
	} {
		for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e6} {
			if err := mk(8, eps); err == nil {
				t.Fatalf("ε=%v accepted", eps)
			}
		}
	}
}

// The candidate-enumeration absorb must agree exactly with the reference
// all-types scan for every report — they are two evaluations of the same
// support predicate.
func TestOLHAbsorbMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct {
		n   int
		eps float64
	}{{1, 1}, {2, 0.5}, {3, 2}, {17, 1}, {64, 1}, {64, 4}, {100, 0.25}, {257, 3}} {
		o, err := NewOLH(cfg.n, cfg.eps)
		if err != nil {
			t.Fatal(err)
		}
		fast := make([]float64, o.StateLen())
		scan := make([]float64, o.StateLen())
		for trial := 0; trial < 200; trial++ {
			rep, err := o.Randomize(rng.Intn(cfg.n), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Absorb(fast, rep); err != nil {
				t.Fatal(err)
			}
			if err := o.AbsorbScan(scan, rep); err != nil {
				t.Fatal(err)
			}
		}
		for v := range fast {
			if fast[v] != scan[v] {
				t.Fatalf("n=%d ε=%g: support[%d] = %v (candidates) vs %v (scan)",
					cfg.n, cfg.eps, v, fast[v], scan[v])
			}
		}
	}
}

// The estimator's channel constants must match the hash family: the true
// type is supported with probability exactly p, a false one with exactly qs.
// Measured over many seeds, the empirical frequencies must agree.
func TestOLHSupportProbabilities(t *testing.T) {
	o, err := NewOLH(12, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const trials = 200000
	trueHits, falseHits := 0, 0
	for i := 0; i < trials; i++ {
		rep, err := o.Randomize(3, rng)
		if err != nil {
			t.Fatal(err)
		}
		a, b := o.coeffs(rep.Seed)
		if o.hashOf(a, b, 3) == rep.Index {
			trueHits++
		}
		if o.hashOf(a, b, 7) == rep.Index {
			falseHits++
		}
	}
	// 5σ bands around the binomial means.
	pTrue, pFalse := o.p, o.qs
	for _, c := range []struct {
		hits int
		want float64
	}{{trueHits, pTrue}, {falseHits, pFalse}} {
		got := float64(c.hits) / trials
		band := 5 * math.Sqrt(c.want*(1-c.want)/trials)
		if math.Abs(got-c.want) > band {
			t.Fatalf("support probability %v, want %v ± %v", got, c.want, band)
		}
	}
}

func TestMetadata(t *testing.T) {
	for _, o := range oracles(t, 10, 1.5) {
		if o.Domain() != 10 || o.Epsilon() != 1.5 || o.Name() == "" {
			t.Fatalf("%s metadata wrong", o.Name())
		}
		if o.CountVariance(0, 1) <= 0 {
			t.Fatalf("%s variance constant not positive", o.Name())
		}
	}
}

func TestOLHHashRange(t *testing.T) {
	olh, err := NewOLH(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// g = round(e) + 1 = 4.
	if olh.g != 4 {
		t.Fatalf("g = %d, want 4", olh.g)
	}
	// Tiny ε still yields a valid range ≥ 2.
	olh2, err := NewOLH(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if olh2.g < 2 {
		t.Fatalf("g = %d", olh2.g)
	}
}

// Unbiasedness: the mean estimate over many protocol runs approaches the true
// histogram for every oracle.
func TestEstimatorsUnbiased(t *testing.T) {
	n := 6
	x := []float64{50, 0, 30, 10, 0, 10} // N = 100
	for _, o := range oracles(t, n, 2.0) {
		mean := make([]float64, n)
		const runs = 60
		for r := 0; r < runs; r++ {
			est, err := run(o, x, int64(r))
			if err != nil {
				t.Fatal(err)
			}
			linalg.AxpyVec(1.0/runs, est, mean)
		}
		for v := range x {
			// Standard error at N=100, 60 runs: a few counts.
			if math.Abs(mean[v]-x[v]) > 8 {
				t.Fatalf("%s: mean estimate[%d] = %v, truth %v", o.Name(), v, mean[v], x[v])
			}
		}
	}
}

// Empirical variance must approximate the closed form, on the empty cells
// (CountVariance(0, N)) and on the cell every user holds (CountVariance(N, N),
// which is all frequency term).
func TestVarianceMatchesClosedForm(t *testing.T) {
	n := 4
	x := []float64{200, 0, 0, 0}
	for _, o := range oracles(t, n, 1.0) {
		var full, empty float64
		const runs = 150
		for r := 0; r < runs; r++ {
			est, err := run(o, x, int64(1000+r))
			if err != nil {
				t.Fatal(err)
			}
			full += (est[0] - 200) * (est[0] - 200)
			empty += est[1] * est[1]
		}
		for _, c := range []struct{ empirical, want float64 }{
			{full / runs, o.CountVariance(200, 200)},
			{empty / runs, o.CountVariance(0, 200)},
		} {
			if c.empirical < 0.5*c.want || c.empirical > 1.7*c.want {
				t.Fatalf("%s: empirical variance %v vs closed form %v", o.Name(), c.empirical, c.want)
			}
		}
	}
}

// OUE must dominate symmetric RAPPOR in variance at the same ε (that is the
// "optimized" in its name), and OLH must be comparable to OUE.
func TestOUEBeatsRAPPOR(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 2, 4} {
		rp, _ := NewRAPPOR(32, eps)
		oue, _ := NewOUE(32, eps)
		if oue.CountVariance(0, 1) >= rp.CountVariance(0, 1) {
			t.Fatalf("ε=%v: OUE variance %v not below RAPPOR %v",
				eps, oue.CountVariance(0, 1), rp.CountVariance(0, 1))
		}
		olh, _ := NewOLH(32, eps)
		ratio := olh.CountVariance(0, 1) / oue.CountVariance(0, 1)
		// The classic analysis puts OLH ≈ OUE (q' = 1/g). With the exact
		// channel inversion over a small hash field the false-support
		// probability drops below 1/g — at ε=4 (g=56, p=59 on n=32) to
		// roughly half — so OLH may land well below OUE but must never be
		// meaningfully worse.
		if ratio > 1.3 || ratio < 0.3 {
			t.Fatalf("ε=%v: OLH/OUE variance ratio %v outside the expected band", eps, ratio)
		}
	}
}

func TestAbsorbRejectsMalformed(t *testing.T) {
	oue, _ := NewOUE(4, 1)
	acc := make([]float64, oue.StateLen())
	if err := oue.Absorb(acc, protocol.Report{}); err == nil {
		t.Fatal("expected error for report without bits")
	}
	if err := oue.Absorb(acc, protocol.Report{Bits: protocol.NewBitVec(3)}); err == nil {
		t.Fatal("expected error for wrong-length report")
	}
	olh, _ := NewOLH(4, 1)
	oacc := make([]float64, olh.StateLen())
	if err := olh.Absorb(oacc, protocol.Report{Bits: protocol.NewBitVec(4)}); err == nil {
		t.Fatal("expected error for unary report sent to OLH")
	}
	if err := olh.Absorb(oacc, protocol.Report{Seed: 1, Index: 99}); err == nil {
		t.Fatal("expected error for out-of-range OLH value")
	}
	// A rejected report must leave the accumulators untouched.
	for _, v := range append(acc, oacc...) {
		if v != 0 {
			t.Fatal("rejected report mutated the accumulator")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ByName(name, 16, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name() != name || o.Domain() != 16 || o.Epsilon() != 1.0 {
			t.Fatalf("%s: metadata wrong", name)
		}
	}
	if _, err := ByName("bogus", 16, 1.0); err == nil {
		t.Fatal("expected error for unknown oracle name")
	}
}

func TestRunValidatesData(t *testing.T) {
	oue, _ := NewOUE(3, 1)
	if _, err := run(oue, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := run(oue, []float64{1, 2.5, 0}, 1); err == nil {
		t.Fatal("expected non-integer error")
	}
	if _, err := run(oue, []float64{1, -2, 0}, 1); err == nil {
		t.Fatal("expected negativity error")
	}
}

// Randomize consumes exactly n Float64 draws per report, position 0 first:
// bit i is (draw i < p or q). Every seeded golden, ldpload -repeat scorecard
// and remote-equals-local check rests on this order; a second generator at
// the same seed replays it and must stay in lockstep across reports.
func TestUnaryRandomizeDrawOrder(t *testing.T) {
	// Widths off the byte and word boundaries: spare bits in the final byte,
	// and Absorb's word loop with and without a byte tail behind it.
	for _, n := range []int{19, 64, 83} {
		for _, mk := range []func(int, float64) (*Unary, error){NewRAPPOR, NewOUE} {
			u, err := mk(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			acc, want := make([]float64, n), make([]float64, n)
			for rep := 0; rep < 50; rep++ {
				v := rep % n
				r, err := u.Randomize(v, rng)
				if err != nil {
					t.Fatal(err)
				}
				if r.Bits.Len() != n {
					t.Fatalf("%s n=%d: %d-bit report", u.Name(), n, r.Bits.Len())
				}
				for i := 0; i < n; i++ {
					keep := u.q
					if i == v {
						keep = u.p
					}
					bit := ref.Float64() < keep
					if r.Bits.Get(i) != bit {
						t.Fatalf("%s n=%d report %d: bit %d = %v, draw %d says %v", u.Name(), n, rep, i, !bit, i, bit)
					}
					if bit {
						want[i]++
					}
				}
				if err := u.Absorb(acc, r); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := rng.Int63(), ref.Int63(); a != b {
				t.Fatalf("%s n=%d: generator out of step after 50 reports — not exactly n draws each", u.Name(), n)
			}
			if !reflect.DeepEqual(acc, want) {
				t.Fatalf("%s n=%d: Absorb counted %v, the bits say %v", u.Name(), n, acc, want)
			}
		}
	}
}

// The unary hot path's cost shape: Check reads the count, Absorb walks set
// bits in the packed bytes; neither allocates.
func TestUnaryAbsorbCheckAllocs(t *testing.T) {
	u, _ := NewOUE(256, 1)
	r, err := u.Randomize(3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]float64, u.StateLen())
	if n := testing.AllocsPerRun(100, func() {
		if u.Check(r) != nil || u.Absorb(acc, r) != nil {
			t.Fatal("valid report refused")
		}
	}); n != 0 {
		t.Fatalf("Check+Absorb allocate %v times per report, want 0", n)
	}
}

func TestRandomizeRejectsOutOfDomain(t *testing.T) {
	oue, _ := NewOUE(3, 1)
	if _, err := oue.Randomize(5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for out-of-domain type")
	}
	olh, _ := NewOLH(3, 1)
	if _, err := olh.Randomize(-1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for out-of-domain type")
	}
}

// The LDP guarantee of unary encoding, checked directly: the likelihood ratio
// of any single report bit pattern between two user types is bounded by e^ε.
func TestUnaryLikelihoodRatioBound(t *testing.T) {
	n, eps := 5, 1.0
	for _, mk := range []func(int, float64) (*Unary, error){NewRAPPOR, NewOUE} {
		u, err := mk(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		prob := func(bits []bool, v int) float64 {
			p := 1.0
			for i, b := range bits {
				pi := u.q
				if i == v {
					pi = u.p
				}
				if b {
					p *= pi
				} else {
					p *= 1 - pi
				}
			}
			return p
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 200; trial++ {
			bits := make([]bool, n)
			for i := range bits {
				bits[i] = rng.Intn(2) == 0
			}
			for v1 := 0; v1 < n; v1++ {
				for v2 := 0; v2 < n; v2++ {
					ratio := prob(bits, v1) / prob(bits, v2)
					if ratio > math.Exp(eps)*(1+1e-9) {
						t.Fatalf("%s: likelihood ratio %v exceeds e^ε", u.Name(), ratio)
					}
				}
			}
		}
	}
}
