package dataset

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestGeneratorsBasicInvariants(t *testing.T) {
	const n, total = 128, 5000
	for _, name := range append(append([]string{}, Names...), "UNIFORM") {
		x, err := ByName(name, n, total, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(x) != n {
			t.Fatalf("%s: length %d, want %d", name, len(x), n)
		}
		if got := linalg.Sum(x); got != total {
			t.Fatalf("%s: total %v, want %d", name, got, total)
		}
		for i, v := range x {
			if v < 0 || v != math.Trunc(v) {
				t.Fatalf("%s: x[%d] = %v is not a non-negative integer", name, i, v)
			}
		}
	}
	if _, err := ByName("nope", n, total, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGeneratorsDeterministicInSeed(t *testing.T) {
	a := HEPTHLike(64, 1000, 42)
	b := HEPTHLike(64, 1000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same data")
		}
	}
	c := HEPTHLike(64, 1000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical data")
	}
}

func TestShapesAreDistinct(t *testing.T) {
	const n, total = 256, 100000
	hepth := HEPTHLike(n, total, 1)
	medcost := MEDCOSTLike(n, total, 1)
	nettrace := NETTRACELike(n, total, 1)

	// MEDCOST has a dominant spike at zero.
	if medcost[0] < 0.15*total {
		t.Fatalf("MEDCOST zero-spike only %v of %v", medcost[0], total)
	}
	// NETTRACE is sparse: its top-5 cells carry most of the mass.
	top := topK(nettrace, 5)
	if top < 0.8*total {
		t.Fatalf("NETTRACE top-5 mass %v of %v — not sparse enough", top, total)
	}
	// HEPTH is comparatively spread out: top-5 cells well under half.
	if topK(hepth, 5) > 0.5*total {
		t.Fatalf("HEPTH top-5 mass %v of %v — too concentrated", topK(hepth, 5), total)
	}
}

func topK(x []float64, k int) float64 {
	c := linalg.CloneVec(x)
	total := 0.0
	for i := 0; i < k; i++ {
		j := 0
		for i, v := range c {
			if v > c[j] {
				j = i
			}
		}
		total += c[j]
		c[j] = -1
	}
	return total
}

func TestNormalize(t *testing.T) {
	p := Normalize([]float64{1, 3})
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("Normalize = %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-mass input")
		}
	}()
	Normalize([]float64{0, 0})
}
