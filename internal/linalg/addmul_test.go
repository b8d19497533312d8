package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// sameBitsVec is sameBits for slices: bit-for-bit, any NaN equal to any NaN.
func sameBitsVec(a, b []float64) bool {
	return sameBits(NewFrom(1, len(a), a), NewFrom(1, len(b), b))
}

// TestAddMul4VectorMatchesGoLoop compares the assembly body with the Go loop
// it stands in for, bit for bit, over every length that exercises the vector
// loop, its scalar tail and neither (0…67), at every start offset within a
// vector (the loads and stores are unaligned by design), over the values that
// separate "the same roundings" from "about the same number": infinities,
// NaN, −0, products that underflow to subnormals, and a zero coefficient
// (which must take the skipping passes on both paths). Each row sits inside a
// larger backing array whose other elements must come back untouched.
func TestAddMul4VectorMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernel detected on this machine: addMul4 is the Go loop alone")
	}
	const guard = 5 // elements either side of a row; more than one vector's overrun
	tiny := math.Float64frombits(3)
	classes := []struct {
		name  string
		coeff []float64 // one of these replaces a random coefficient
		row   []float64 // these are sprinkled into d and the b rows
	}{
		{"finite", nil, nil},
		{"+Inf", []float64{math.Inf(1)}, []float64{math.Inf(1)}},
		{"-Inf", []float64{math.Inf(-1)}, []float64{math.Inf(-1), math.Inf(1)}},
		{"NaN", []float64{math.NaN()}, []float64{math.NaN()}},
		{"-0", nil, []float64{math.Copysign(0, -1), 0}},
		{"subnormal", []float64{tiny, 1e-160, -1e-300}, []float64{tiny, -tiny, 1e-160, 2.5e-308}},
		{"zero coefficient", []float64{0, math.Copysign(0, -1)}, nil},
	}
	rng := rand.New(rand.NewSource(240))
	row := func(n, off int, special []float64) (backing, r []float64) {
		backing = make([]float64, off+n+2*guard)
		for i := range backing {
			backing[i] = rng.NormFloat64()
		}
		r = backing[guard+off : guard+off+n]
		for i := range r {
			if len(special) > 0 && rng.Intn(4) == 0 {
				r[i] = special[rng.Intn(len(special))]
			}
		}
		return backing, r
	}
	for _, c := range classes {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				var a [4]float64
				for i := range a {
					a[i] = rng.NormFloat64()
				}
				if len(c.coeff) > 0 {
					a[rng.Intn(4)] = c.coeff[rng.Intn(len(c.coeff))]
				}
				var backing, rows [5][]float64 // d, b0…b3
				for i := range rows {
					// Different offsets per row: d and the b rows are never
					// mutually aligned in the kernels either.
					backing[i], rows[i] = row(n, (off+i)%4, c.row)
				}
				// The b rows may run past len(d), as the kernels pass them.
				b := [4][]float64{}
				for i := range b {
					b[i] = backing[i+1][guard+(off+i+1)%4:]
				}
				before := [5][]float64{}
				for i := range backing {
					before[i] = append([]float64(nil), backing[i]...)
				}
				name := fmt.Sprintf("%s len=%d offset=%d a=%v", c.name, n, off, a)

				want := append([]float64(nil), rows[0]...)
				kernelRun{vector: false, procs: 1}.do(func() {
					addMul4(want, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				})
				check := func(body string) {
					t.Helper()
					if !sameBitsVec(rows[0], want) {
						t.Fatalf("%s: %s gives %v, the Go loop %v", name, body, rows[0], want)
					}
					copy(rows[0], before[0][guard+off:])
					for i := range backing {
						if !sameBitsVec(backing[i], before[i]) {
							t.Fatalf("%s: %s wrote outside d (array %d)", name, body, i)
						}
					}
				}
				addMul4(rows[0], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				check("addMul4")
				if n == 0 || a[0] == 0 || a[1] == 0 || a[2] == 0 || a[3] == 0 {
					continue // addMul4 never hands these to the assembly
				}
				// The assembly itself, including the lengths addMul4 keeps
				// from it (1…3: scalar tail only).
				addMul4AVX2(&rows[0][0], &b[0][0], &b[1][0], &b[2][0], &b[3][0], n, a[0], a[1], a[2], a[3])
				check("addMul4AVX2")
			}
		}
	}
}

// TestVectorKernelOffWithoutAVX2: the switch may be on only where the
// processor advertises AVX2 to the operating system's own report. (The
// converse does not hold: an OS can withhold the YMM state from a capable
// CPU, and then the switch is rightly off.)
func TestVectorKernelOffWithoutAVX2(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	advertised := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				advertised = advertised || f == "avx2"
			}
		}
	}
	t.Logf("/proc/cpuinfo advertises avx2: %v; kernel: %s", advertised, Kernel())
	if useAVX2 && !advertised {
		t.Fatal("the vector kernel is selected on a machine whose /proc/cpuinfo lacks avx2")
	}
}
