package mechanism

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func rrStrategy(n int, eps float64) *strategy.Strategy {
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
	return strategy.New(q, eps)
}

func TestFactorizationCachesRecon(t *testing.T) {
	f := NewFactorization("rr", rrStrategy(6, 1))
	w1 := workload.NewHistogram(6)
	w2 := workload.NewPrefix(6)
	if _, err := f.Profile(w1); err != nil {
		t.Fatal(err)
	}
	r1 := f.recon
	if _, err := f.Profile(w2); err != nil {
		t.Fatal(err)
	}
	if f.recon != r1 {
		t.Fatal("reconstruction not cached across workloads")
	}
}

func TestFactorizationRejectsRankDeficientWorkloads(t *testing.T) {
	// A strategy whose rows only span a 1-dimensional space cannot answer
	// the Histogram workload; Profile must say so rather than fabricate
	// numbers.
	q := linalg.New(2, 3)
	for u := 0; u < 3; u++ {
		q.Set(0, u, 0.5)
		q.Set(1, u, 0.5)
	}
	f := NewFactorization("constant", strategy.New(q, 1))
	_, err := f.Profile(workload.NewHistogram(3))
	if err == nil {
		t.Fatal("expected unsupported-workload error")
	}
	if !errors.Is(err, strategy.ErrUnsupportedWorkload) {
		t.Fatalf("error %v does not wrap ErrUnsupportedWorkload", err)
	}
}

func TestFactorizationRankDeficientButSupported(t *testing.T) {
	// The same constant strategy CAN answer the total-count workload
	// (W = all-ones row), which lies in its row space.
	q := linalg.New(2, 3)
	for u := 0; u < 3; u++ {
		q.Set(0, u, 0.5)
		q.Set(1, u, 0.5)
	}
	f := NewFactorization("constant", strategy.New(q, 1))
	total := workload.NewExplicit("Total", linalg.NewFrom(1, 3, []float64{1, 1, 1}))
	vp, err := f.Profile(total)
	if err != nil {
		t.Fatalf("total-count workload should be supported: %v", err)
	}
	// Every user deterministically contributes 1 to the total: variance 0.
	for _, v := range vp.PerUser {
		if v > 1e-9 {
			t.Fatalf("total-count variance = %v, want ~0", v)
		}
	}
}

func TestAdditivePinvCached(t *testing.T) {
	a := NewAdditive("test", linalg.Identity(4), 1, 2)
	if _, err := a.Profile(workload.NewHistogram(4)); err != nil {
		t.Fatal(err)
	}
	p1 := a.pinvA
	if _, err := a.Profile(workload.NewPrefix(4)); err != nil {
		t.Fatal(err)
	}
	if a.pinvA != p1 {
		t.Fatal("pseudo-inverse not cached")
	}
}

func TestAdditiveRectangularStrategy(t *testing.T) {
	// A tall strategy (more rows than columns): A = [I; I] halves the
	// effective noise variance because A⁺ = [I/2, I/2].
	a := linalg.NewFrom(6, 3, append(linalg.Identity(3).Data(), linalg.Identity(3).Data()...))
	tall := NewAdditive("tall", a, 1, 4)
	flat := NewAdditive("flat", linalg.Identity(3), 1, 4)
	w := workload.NewHistogram(3)
	vt, err := tall.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := flat.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vt.PerUser[0]*2-vf.PerUser[0]) > 1e-9 {
		t.Fatalf("stacked strategy variance %v, want half of %v", vt.PerUser[0], vf.PerUser[0])
	}
}

func TestSampleComplexitiesMatrix(t *testing.T) {
	ms := []Mechanism{
		NewFactorization("rr", rrStrategy(4, 1)),
		NewAdditive("laplace", linalg.Identity(4), 1, 8),
		NewFactorization("wrong-domain", rrStrategy(5, 1)),
	}
	ws := []workload.Workload{workload.NewHistogram(4), workload.NewPrefix(4)}
	for i, m := range ms[:2] {
		for j, w := range ws {
			vp, err := m.Profile(w)
			if err != nil {
				t.Fatalf("ms[%d] on ws[%d]: %v", i, j, err)
			}
			if sc := vp.SampleComplexity(0.01); !(sc > 0) || math.IsInf(sc, 1) {
				t.Fatalf("sc[%d][%d] = %v", i, j, sc)
			}
		}
	}
	// The mismatched mechanism is an error, not a panic.
	if _, err := ms[2].Profile(ws[0]); err == nil {
		t.Fatal("expected an error for a domain mismatch")
	}
}

func TestPairwiseColumnDiameterPanicsOnBadNorm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported norm")
		}
	}()
	PairwiseColumnDiameter(linalg.Identity(2), 3)
}
