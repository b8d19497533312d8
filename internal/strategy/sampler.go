package strategy

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler draws randomized responses from a strategy matrix: Sample(u, rng)
// returns an output index o with probability Q[o][u]. Each column is
// preprocessed into a Walker alias table, so sampling is O(1) per draw after
// O(m·n) setup — the per-user randomizer the LDP protocol actually executes.
type Sampler struct {
	n      int
	m      int
	tables []aliasTable
}

// aliasTable is a Walker alias table over m outcomes.
type aliasTable struct {
	prob  []float64
	alias []int
}

// NewSampler preprocesses every column of the strategy into an alias table.
// Columns must be (approximately) normalized probability vectors; they are
// re-normalized defensively to absorb round-off.
func NewSampler(s *Strategy) (*Sampler, error) {
	m, n := s.Outputs(), s.Domain()
	sp := &Sampler{n: n, m: m, tables: make([]aliasTable, n)}
	for u := 0; u < n; u++ {
		col := s.Q.Col(u)
		total := compensatedSum(col)
		if total <= 0 {
			return nil, fmt.Errorf("strategy: column %d has no probability mass", u)
		}
		for i := range col {
			if col[i] < 0 {
				if col[i] > -1e-12 {
					col[i] = 0
				} else {
					return nil, fmt.Errorf("strategy: column %d has negative probability %g", u, col[i])
				}
			}
			col[i] /= total
		}
		sp.tables[u] = buildAlias(col)
	}
	return sp, nil
}

// compensatedSum is Σx with Neumaier's running correction. A plain sum of m
// probabilities is off by up to m ulps; normalizing by it leaves the column
// off 1 by as much, and the alias table hands that excess to its last
// outcomes, which then realize a ratio across user types past e^ε.
func compensatedSum(x []float64) float64 {
	sum, c := 0.0, 0.0
	for _, v := range x {
		t := sum + v
		if math.Abs(sum) >= math.Abs(v) {
			c += (sum - t) + v
		} else {
			c += (v - t) + sum
		}
		sum = t
	}
	return sum + c
}

// buildAlias constructs a Walker alias table from a normalized probability
// vector using Vose's stable O(m) construction.
func buildAlias(p []float64) aliasTable {
	m := len(p)
	t := aliasTable{prob: make([]float64, m), alias: make([]int, m)}
	scaled := make([]float64, m)
	small := make([]int, 0, m)
	large := make([]int, 0, m)
	for i, v := range p {
		scaled[i] = v * float64(m)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		// Only reachable through round-off; treat as probability one.
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Sample draws one randomized response for a user of type u.
func (sp *Sampler) Sample(u int, rng *rand.Rand) int {
	t := &sp.tables[u]
	i := rng.Intn(sp.m)
	if rng.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// Domain returns the domain size n.
func (sp *Sampler) Domain() int { return sp.n }
