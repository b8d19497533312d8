// Package benchfix holds the fixture the protocol tests, the repository
// benchmarks (bench_test.go) and internal/loadgen share.
package benchfix

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/strategy"
)

// RRStrategy returns the n-ary randomized-response strategy matrix — the
// standard cheap fixture for protocol benchmarks.
func RRStrategy(n int, eps float64) *strategy.Strategy {
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
