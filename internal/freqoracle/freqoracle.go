// Package freqoracle implements the practical LDP frequency oracles the paper
// cites as the state of the art for the Histogram workload [41, 18]: unary
// encoding (symmetric RAPPOR and Optimized Unary Encoding) and Optimized
// Local Hashing. Unlike the strategy-matrix mechanisms elsewhere in this
// repository, these scale to domains far beyond what an explicit m×n strategy
// matrix allows (their implicit output ranges are exponential or
// hash-parameterized), at the cost of answering only point queries directly.
//
// Every oracle implements both sides of the streaming protocol contract
// (internal/protocol): protocol.Randomizer on the client and
// protocol.Aggregator on the server, so the same Client/Collector
// pipeline that serves strategy-matrix mechanisms serves these too. Each also
// exposes the closed-form per-count variance from Wang et al., so they can be
// compared against the factorization mechanisms on the Histogram workload at
// any domain size.
package freqoracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/protocol"
)

// Epsilon bounds every oracle constructor enforces. ε must be a positive
// finite number (NaN/±Inf poison the flip probabilities: exp(NaN) propagates
// and exp(±Inf) turns p into NaN via Inf/Inf — a bug surfaced by
// FuzzLoadOracle feeding mutated wire files into ByName). The upper caps
// reject budgets so large the mechanism degenerates: beyond MaxUnaryEps the
// flip probabilities are indistinguishable from 0/1 in float64, and beyond
// MaxOLHEps the hash range g = ⌈e^ε⌉+1 no longer fits sane integer
// arithmetic. Neither cap excludes any meaningful privacy regime.
const (
	MaxUnaryEps = 64
	MaxOLHEps   = 16
)

func validEps(eps, max float64) error {
	if err := protocol.CheckEpsilon(eps, max); err != nil {
		return fmt.Errorf("freqoracle: %w", err)
	}
	return nil
}

// Oracle is a frequency-estimation protocol: clients randomize their type
// (protocol.Randomizer), the server aggregates reports and estimates the
// histogram (protocol.Aggregator).
type Oracle interface {
	protocol.Randomizer
	protocol.Aggregator
	// Name identifies the protocol ("OUE", "OLH", "RAPPOR").
	Name() string
	// VariancePerUser returns the estimator's variance contribution of one
	// user to one count (the n·Var[ĉ_v]/N figure of merit, asymptotically
	// independent of the true frequencies for these oracles).
	VariancePerUser() float64
}

// ByName constructs the named oracle ("OUE", "OLH", "RAPPOR") for domain n at
// privacy budget eps — the inverse of Oracle.Name, used by the versioned wire
// format to rebuild a saved oracle configuration.
func ByName(name string, n int, eps float64) (Oracle, error) {
	switch name {
	case "OUE":
		return NewOUE(n, eps)
	case "OLH":
		return NewOLH(n, eps)
	case "RAPPOR":
		return NewRAPPOR(n, eps)
	}
	return nil, fmt.Errorf("freqoracle: unknown oracle %q", name)
}

// ---------------------------------------------------------------------------
// Unary encoding (RAPPOR / OUE)
// ---------------------------------------------------------------------------

// Unary is the unary-encoding family: the user one-hot encodes their type
// into n bits and reports each bit flipped with bit-dependent probabilities.
// p is Pr[1 stays 1], q is Pr[0 becomes 1]. Symmetric RAPPOR uses
// p = e^{ε/2}/(1+e^{ε/2}), q = 1−p; OUE uses p = 1/2, q = 1/(1+e^ε), which
// minimizes estimation variance at the same ε.
type Unary struct {
	name string
	n    int
	eps  float64
	p, q float64
}

// NewRAPPOR returns symmetric RAPPOR (basic one-hot variant) for any domain
// size — unlike baselines.RAPPOR, no strategy matrix is materialized.
func NewRAPPOR(n int, eps float64) (*Unary, error) {
	if n < 1 {
		return nil, errors.New("freqoracle: domain must be positive")
	}
	if err := validEps(eps, MaxUnaryEps); err != nil {
		return nil, err
	}
	e2 := math.Exp(eps / 2)
	p := e2 / (1 + e2)
	return &Unary{name: "RAPPOR", n: n, eps: eps, p: p, q: 1 - p}, nil
}

// NewOUE returns Optimized Unary Encoding (Wang et al.).
func NewOUE(n int, eps float64) (*Unary, error) {
	if n < 1 {
		return nil, errors.New("freqoracle: domain must be positive")
	}
	if err := validEps(eps, MaxUnaryEps); err != nil {
		return nil, err
	}
	return &Unary{name: "OUE", n: n, eps: eps, p: 0.5, q: 1 / (1 + math.Exp(eps))}, nil
}

func (u *Unary) Name() string { return u.name }

// Domain returns n.
func (u *Unary) Domain() int { return u.n }

// Epsilon returns ε.
func (u *Unary) Epsilon() float64 { return u.eps }

// Randomize perturbs the one-hot encoding of v into the report's bit vector:
// exactly one Float64 draw per position, in ascending position order — the
// property every seeded golden and remote-equals-local check rests on. The
// coin is written branch-free: it is unpredictable by design, so a branch on
// it would mispredict half the time.
func (u *Unary) Randomize(v int, rng *rand.Rand) (protocol.Report, error) {
	if v < 0 || v >= u.n {
		return protocol.Report{}, fmt.Errorf("freqoracle: type %d out of domain %d", v, u.n)
	}
	bits := protocol.NewBitVec(u.n)
	packed := bits.Packed()
	for i := 0; i < u.n; i++ {
		keep := u.q
		if i == v {
			keep = u.p
		}
		var bit byte
		if rng.Float64() < keep {
			bit = 1
		}
		packed[i>>3] |= bit << (i & 7)
	}
	return protocol.Report{Bits: bits}, nil
}

// VariancePerUser returns q(1−q)/(p−q)² + [p(1−p) − q(1−q)]·f/(p−q)² with the
// frequency term dropped (the standard approximate variance; exact for f→0).
func (u *Unary) VariancePerUser() float64 {
	d := u.p - u.q
	return u.q * (1 - u.q) / (d * d)
}

// StateLen returns n: the accumulator holds per-position one-counts.
func (u *Unary) StateLen() int { return u.n }

// Check validates the report's bit-vector shape without touching any state.
func (u *Unary) Check(r protocol.Report) error {
	if r.Bits.Len() != u.n {
		return fmt.Errorf("freqoracle: malformed unary report (%d bits, want %d)", r.Bits.Len(), u.n)
	}
	return nil
}

// Absorb adds the report's set bits to the per-position one-counts, walking
// the packed bytes set bit by set bit (a BitVec's spare bits are zero, so
// every position visited is below n). Whole 64-bit words go first: the inner
// loop's exit is the one unpredictable branch, and a word pays it once per 64
// positions where a byte pays it once per 8 (84 vs 290 ns per n=256 report).
func (u *Unary) Absorb(acc []float64, r protocol.Report) error {
	if err := u.Check(r); err != nil {
		return err
	}
	packed := r.Bits.Packed()
	k := 0
	for ; k+8 <= len(packed); k += 8 {
		for w := binary.LittleEndian.Uint64(packed[k:]); w != 0; w &= w - 1 {
			acc[k<<3+bits.TrailingZeros64(w)]++
		}
	}
	for ; k < len(packed); k++ {
		for b := packed[k]; b != 0; b &= b - 1 {
			acc[k<<3+bits.TrailingZeros8(b)]++
		}
	}
	return nil
}

// EstimateCounts inverts the bit-flip channel: ĉ_v = (ones_v − q·N)/(p − q).
func (u *Unary) EstimateCounts(acc []float64, count float64) []float64 {
	out := make([]float64, u.n)
	d := u.p - u.q
	for v := range out {
		out[v] = (acc[v] - u.q*count) / d
	}
	return out
}

// ---------------------------------------------------------------------------
// Optimized Local Hashing (OLH)
// ---------------------------------------------------------------------------

// OLH is Optimized Local Hashing (Wang et al.): each user hashes their type
// into a small range g = ⌈e^ε⌉ + 1 with a per-user hash seed, then applies
// randomized response over the hash range. Communication is O(log g) and no
// n-sized state is ever sent.
//
// The hash family is invertible on purpose: h_seed(v) = ((a·v + b) mod p)
// mod g with p the smallest prime ≥ max(n, g) and (a, b) ∈ [1,p)×[0,p)
// derived from the report seed. The family is pairwise uniform — for u ≠ v
// the pair (a·u+b, a·v+b) mod p is exactly uniform over ordered distinct
// pairs — so the collision probability needed by the estimator is known in
// closed form, and because the map is a bijection of Z_p the aggregator can
// enumerate the ~p/g preimages of the reported bucket (Absorb) instead of
// hashing all n types per report — a g-fold cut in aggregation work, the
// known bottleneck of OLH. The LDP guarantee is hash-independent (the
// randomized response over [0, g) alone bounds the likelihood ratio by e^ε),
// so the family choice only affects utility and speed, and the channel
// inversion in EstimateCounts uses the family's exact support probability, so
// estimates stay exactly unbiased at any p.
type OLH struct {
	n     int
	eps   float64
	g     int
	p     float64 // Pr[report the true hash value]
	prime uint64  // modulus of the hash field, smallest prime ≥ max(n, g)
	qs    float64 // exact Pr[a false type is supported by a report]
}

// NewOLH returns the OLH oracle with the variance-optimal hash range.
func NewOLH(n int, eps float64) (*OLH, error) {
	if n < 1 {
		return nil, errors.New("freqoracle: domain must be positive")
	}
	if err := validEps(eps, MaxOLHEps); err != nil {
		return nil, err
	}
	if uint64(n) > 1<<31 {
		return nil, fmt.Errorf("freqoracle: OLH domain %d exceeds the 2³¹ hash-field limit", n)
	}
	e := math.Exp(eps)
	g := int(math.Round(e)) + 1
	if g < 2 {
		g = 2
	}
	o := &OLH{n: n, eps: eps, g: g, p: e / (e + float64(g) - 1)}
	lo := uint64(n)
	if uint64(g) > lo {
		lo = uint64(g)
	}
	o.prime = nextPrime(lo)
	// Exact pairwise collision probability of the family: with the pair
	// (x, y) uniform over ordered distinct pairs of Z_p², and c_r the number
	// of field elements in bucket r, Pr[x, y share a bucket] is
	// (Σ_r c_r² − p) / (p(p−1)). From it, the probability that a false type
	// is supported: the report is the true bucket w.p. p (collides with the
	// false type's bucket w.p. qc) and one of the other g−1 buckets
	// otherwise.
	p, gg := o.prime, uint64(o.g)
	k, s := p/gg, p%gg
	sumC2 := s*(k+1)*(k+1) + (gg-s)*k*k
	qc := float64(sumC2-p) / (float64(p) * float64(p-1))
	o.qs = o.p*qc + (1-o.p)*(1-qc)/float64(o.g-1)
	return o, nil
}

// nextPrime returns the smallest prime ≥ lo (≥ 2). Trial division is ample:
// the gap to the next prime is tiny and lo is a domain size, not a secret.
func nextPrime(lo uint64) uint64 {
	if lo <= 2 {
		return 2
	}
	for p := lo | 1; ; p += 2 {
		composite := false
		for d := uint64(3); d*d <= p; d += 2 {
			if p%d == 0 {
				composite = true
				break
			}
		}
		if !composite {
			return p
		}
	}
}

// mix is the splitmix64 finalizer, the avalanche step between the raw report
// seed and the hash coefficients.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// coeffs derives the report's hash coefficients (a, b) ∈ [1, p) × [0, p)
// from its seed. The modulo bias is ≤ p/2⁶⁴ — immaterial at p < 2³².
func (o *OLH) coeffs(seed uint64) (a, b uint64) {
	a = 1 + mix(seed)%(o.prime-1)
	b = mix(seed+0x9e3779b97f4a7c15) % o.prime
	return a, b
}

// hashOf buckets type v under coefficients (a, b).
func (o *OLH) hashOf(a, b uint64, v int) int {
	return int(((a*uint64(v) + b) % o.prime) % uint64(o.g))
}

func (o *OLH) Name() string { return "OLH" }

// Domain returns n.
func (o *OLH) Domain() int { return o.n }

// Epsilon returns ε.
func (o *OLH) Epsilon() float64 { return o.eps }

// Randomize hashes the user's type with a fresh seed and perturbs the hash
// value with randomized response over [0, g). The report carries the seed and
// the (perturbed) hash value.
func (o *OLH) Randomize(v int, rng *rand.Rand) (protocol.Report, error) {
	if v < 0 || v >= o.n {
		return protocol.Report{}, fmt.Errorf("freqoracle: type %d out of domain %d", v, o.n)
	}
	seed := rng.Uint64()
	a, b := o.coeffs(seed)
	true_ := o.hashOf(a, b, v)
	if rng.Float64() < o.p {
		return protocol.Report{Seed: seed, Index: true_}, nil
	}
	// Report one of the other g−1 values uniformly.
	alt := rng.Intn(o.g - 1)
	if alt >= true_ {
		alt++
	}
	return protocol.Report{Seed: seed, Index: alt}, nil
}

// VariancePerUser is the Wang et al. figure of merit q'(1−q')/(p'−q')² with
// p' the true-support probability and q' the family's exact false-support
// probability (→ 1/g as the hash field grows; slightly below it at small
// fields, which only helps).
func (o *OLH) VariancePerUser() float64 {
	d := o.p - o.qs
	return o.qs * (1 - o.qs) / (d * d)
}

// StateLen returns n: the accumulator holds per-type support counts.
func (o *OLH) StateLen() int { return o.n }

// Check validates the report's hash value without touching any state.
func (o *OLH) Check(r protocol.Report) error {
	if r.Bits.Present() {
		return errors.New("freqoracle: unary-encoded report sent to an OLH aggregator")
	}
	if r.Index < 0 || r.Index >= o.g {
		return fmt.Errorf("freqoracle: OLH report value %d out of range [0, %d)", r.Index, o.g)
	}
	return nil
}

// Absorb adds the report's support: type v is supported when v hashes to the
// reported value under the report's seed. Instead of hashing all n types, it
// inverts the report's hash — the supported field elements are exactly
// {t ∈ Z_p : t ≡ Index (mod g)}, and v = a⁻¹(t − b) mod p recovers each
// candidate type — so one report costs ~p/g field operations, a g-fold
// reduction of OLH's aggregation bottleneck. AbsorbScan is the reference
// per-type loop it is tested against and benchmarked with.
func (o *OLH) Absorb(acc []float64, r protocol.Report) error {
	if err := o.Check(r); err != nil {
		return err
	}
	a, b := o.coeffs(r.Seed)
	p := o.prime
	ainv := powmod(a, p-2, p) // Fermat: a⁻¹ mod prime p
	n, g := uint64(o.n), uint64(o.g)
	for t := uint64(r.Index); t < p; t += g {
		d := t + p - b
		if d >= p {
			d -= p
		}
		if v := ainv * d % p; v < n {
			acc[v]++
		}
	}
	return nil
}

// AbsorbScan is the classic OLH absorb: hash every type under the report's
// seed and count the matches. It computes exactly what Absorb computes
// (property-tested) and is retained as the reference for equivalence tests
// and the BenchmarkOLHAbsorb comparison.
func (o *OLH) AbsorbScan(acc []float64, r protocol.Report) error {
	if err := o.Check(r); err != nil {
		return err
	}
	a, b := o.coeffs(r.Seed)
	for v := 0; v < o.n; v++ {
		if o.hashOf(a, b, v) == r.Index {
			acc[v]++
		}
	}
	return nil
}

// powmod computes a^e mod m by square-and-multiply (m < 2³², so products fit
// uint64).
func powmod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	res := uint64(1)
	a %= m
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			res = res * a % m
		}
		a = a * a % m
	}
	return res
}

// EstimateCounts inverts the support channel: a true v is supported with
// probability p, any other with exactly qs; ĉ_v = (support_v − qs·N)/(p − qs).
func (o *OLH) EstimateCounts(acc []float64, count float64) []float64 {
	out := make([]float64, o.n)
	d := o.p - o.qs
	for v := range out {
		out[v] = (acc[v] - o.qs*count) / d
	}
	return out
}
