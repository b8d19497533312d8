package main

import (
	"fmt"
	"math"
	"sort"
)

// samples retains every observation of one timing. Quantiles are exact order
// statistics (nearest rank) over the retained values — never bucket
// estimates — so a reported quantile is always a value that was observed and
// can never exceed the observed maximum.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// merge folds another goroutine's samples into s.
func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

func (s *samples) max() float64 {
	s.sort()
	if len(s.v) == 0 {
		return math.NaN()
	}
	return s.v[len(s.v)-1]
}

// minBeyond is how many samples must lie beyond a tail percentile before it
// may be reported: with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// quantile returns the q-th sample quantile as the ceil(q·n)-th smallest
// observation. A tail quantile (q > 0.5) with fewer than minBeyond samples
// beyond it is refused; the median needs only one sample.
func (s *samples) quantile(q float64) (float64, error) {
	n := len(s.v)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0, 1)", q)
	}
	s.sort()
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	x := s.v[rank-1]
	if x > s.v[n-1] {
		return 0, fmt.Errorf("p%g = %v exceeds the observed max %v", q*100, x, s.v[n-1])
	}
	return x, nil
}

// median of a small slice of repeated measurements (layer probes, set-ups).
func median(xs []float64) float64 {
	s := samples{v: append([]float64(nil), xs...)}
	m, err := s.quantile(0.5)
	if err != nil {
		return 0
	}
	return m
}
