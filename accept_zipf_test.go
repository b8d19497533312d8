// Zipfian statistical acceptance: the same end-to-end protocol check as
// TestStatisticalAcceptance, but over the load simulator's population shape —
// a zipf(s=1.1) histogram, heavy head and long thin tail — instead of the
// geometric fixture. The envelope is the same (loadgen.Score, over each
// mechanism's served variance), so this pins that every mechanism's variance
// model holds on the traffic shape the soak tier actually drives.
package ldp_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/linalg"
)

const zipfAcceptS = 1.1

// zipfAcceptData builds the fixed zipfian histogram: item v carries weight
// 1/(v+1)^s, scaled to acceptUsers and rounded largest-remainder so the
// integer counts sum exactly to acceptUsers — deterministic, no sampling.
func zipfAcceptData() []float64 {
	weights := make([]float64, acceptN)
	total := 0.0
	for v := range weights {
		weights[v] = 1.0 / math.Pow(float64(v+1), zipfAcceptS)
		total += weights[v]
	}
	x := make([]float64, acceptN)
	type rem struct {
		v    int
		frac float64
	}
	rems := make([]rem, acceptN)
	assigned := 0.0
	for v := range x {
		exact := float64(acceptUsers) * weights[v] / total
		x[v] = math.Floor(exact)
		assigned += x[v]
		rems[v] = rem{v, exact - x[v]}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].v < rems[j].v // deterministic tie-break
	})
	for i := 0; i < int(float64(acceptUsers)-assigned); i++ {
		x[rems[i].v]++
	}
	return x
}

func TestStatisticalAcceptanceZipfian(t *testing.T) {
	x := zipfAcceptData()
	if total := linalg.Sum(x); total != acceptUsers {
		t.Fatalf("zipf fixture mass %v, want %d", total, acceptUsers)
	}
	if x[0] <= x[acceptN-1]*10 {
		t.Fatalf("fixture is not zipfian: head %v vs tail %v", x[0], x[acceptN-1])
	}
	for _, c := range acceptCases(t) {
		t.Run(c.name, func(t *testing.T) {
			e := acceptScore(t, c.rz, c.agg, x, acceptSeed+1)
			if !e.InEnvelope {
				t.Errorf("estimate outside the envelope: %+v", e)
			}
			t.Logf("%s zipf(s=%.1f): %+v", c.name, zipfAcceptS, e)
		})
	}
}
