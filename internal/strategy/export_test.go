package strategy

// AliasDistribution returns the distribution over outputs that Sample
// realizes for user type u: output o comes back when slot o is drawn and
// kept, or when a slot aliased to o is drawn and passed over.
func AliasDistribution(sp *Sampler, u int) []float64 {
	t := &sp.tables[u]
	p := make([]float64, sp.m)
	for j, keep := range t.prob {
		p[j] += keep
		p[t.alias[j]] += 1 - keep
	}
	for o := range p {
		p[o] /= float64(sp.m)
	}
	return p
}
