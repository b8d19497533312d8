package main

import (
	"math"
	"math/rand"
	"sort"

	ldp "repro"
)

// zipfS is the popularity skew of every generated population: item rank r is
// drawn with weight 1/(r+1)^1.1.
const zipfS = 1.1

// zipf draws item ranks from a precomputed CDF: one uniform draw and a binary
// search per item, deterministic for a seeded stream.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int { return sort.SearchFloat64s(z.cdf, rng.Float64()) }

// batchPool is the generator's output: pre-randomized report batches (the
// system under test receives only these) and, per batch, the true item
// histogram they were randomized from, so any multiset of acknowledged
// batches has an exact ground truth.
type batchPool struct {
	batches [][]ldp.Report
	truth   [][]float64 // truth[b][item] = users of that item in batch b
}

// newBatchPool randomizes nBatches batches of perBatch zipf-distributed users
// through the mechanism's client side. Everything derives from rng.
func newBatchPool(r ldp.Randomizer, rng *rand.Rand, nBatches, perBatch int) (*batchPool, error) {
	client, err := ldp.NewClient(r)
	if err != nil {
		return nil, err
	}
	z := newZipf(r.Domain())
	p := &batchPool{batches: make([][]ldp.Report, nBatches), truth: make([][]float64, nBatches)}
	for b := range p.batches {
		p.batches[b] = make([]ldp.Report, perBatch)
		p.truth[b] = make([]float64, r.Domain())
		for i := range p.batches[b] {
			item := z.draw(rng)
			rep, err := client.Randomize(item, rng)
			if err != nil {
				return nil, err
			}
			p.batches[b][i] = rep
			p.truth[b][item]++
		}
	}
	return p, nil
}

// truthOf sums the ground-truth histograms of the batches acknowledged
// acked[b] times each.
func (p *batchPool) truthOf(acked []int64) []float64 {
	out := make([]float64, len(p.truth[0]))
	for b, k := range acked {
		if k == 0 {
			continue
		}
		for i, v := range p.truth[b] {
			out[i] += float64(k) * v
		}
	}
	return out
}
