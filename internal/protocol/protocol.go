// Package protocol defines the transport-agnostic client/collector contract
// every LDP mechanism in this repository speaks: a Randomizer encodes one
// user's type into a Report on the client, an Aggregator absorbs reports and
// estimates per-type counts on the (untrusted) server. Strategy-matrix
// mechanisms (the paper's factorization mechanisms) and the frequency oracles
// of Wang et al. (OUE, OLH, RAPPOR) both implement it, so one
// Client/Server/Collector pipeline, one simulator, and one wire format serve
// the whole library.
//
// The aggregation state is deliberately a plain []float64 accumulator owned
// by the caller, not by the Aggregator: states are mergeable by element-wise
// addition, which is what makes contention-free sharded ingest (one
// accumulator per shard, merge on snapshot) and distributed collection (one
// accumulator per collector node) work without any mechanism-specific code.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// CheckEpsilon is the one ε-validity predicate every layer that accepts a
// privacy budget from outside (wire loaders, oracle constructors) shares: ε
// must be a positive finite number no larger than the caller's cap. NaN and
// ±Inf poison every downstream exp/ratio computation, and each layer picks
// its own max for where the mechanism arithmetic degenerates — but the
// predicate itself lives here once, so the policies cannot drift apart.
func CheckEpsilon(eps, max float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
		return fmt.Errorf("privacy budget ε must be a positive finite number, got %v", eps)
	}
	if eps > max {
		return fmt.Errorf("ε = %v exceeds the supported maximum %v", eps, max)
	}
	return nil
}

// Report is the single wire format a client sends to the collector. Exactly
// which fields carry information depends on the mechanism family:
//
//   - strategy-matrix mechanisms: Index is the sampled output o ∈ [0, m);
//   - OLH: Seed is the per-report hash seed, Index the perturbed hash value;
//   - unary encoding (OUE / RAPPOR): Bits is the perturbed one-hot vector.
//
// Reports travel in LDPF frames (internal/transport), where the zero-valued
// fields of the unused family cost a flags bit and nothing else. The struct is
// flat and 40 bytes; Bits is opaque and deliberately not a gob/JSON value.
type Report struct {
	// Index is an output index (strategy mechanisms) or the perturbed hash
	// value (OLH).
	Index int
	// Seed is the per-report hash seed (OLH only).
	Seed uint64
	// Bits is the perturbed unary encoding (OUE / RAPPOR only).
	Bits BitVec
}

// BitVec is a report's unary bit vector, held exactly as the report frame and
// the WAL record carry it: a uvarint bit count, then ⌈count/8⌉ bytes of
// LSB-first packed bits whose spare bits in the final byte are zero. Holding
// the wire form means a decoded report aliases the frame it arrived in and an
// encoder copies bytes — no layer between Randomize and Absorb packs or
// unpacks a bit. The zero value means "no vector" (the strategy and OLH
// families); a present vector may still be 0 bits long. The count lives inside
// the one slice, as on the wire, so a Report stays 40 bytes.
//
// A BitVec is well formed by construction: NewBitVec builds one, ParseBitVec
// validates one arriving from outside, and nothing else can make one.
type BitVec struct {
	wire []byte
}

// NewBitVec returns a present vector of n zero bits.
func NewBitVec(n int) BitVec {
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(n))
	wire := make([]byte, k+(n+7)/8)
	copy(wire, count[:k])
	return BitVec{wire: wire}
}

// ParseBitVec adopts the bit-vector field at the head of buf and returns it
// with the number of bytes it occupies. The vector aliases buf — nothing is
// copied or unpacked. This is the one place a vector from outside the process
// is validated: the count must be a minimally-encoded uvarint no larger than
// maxBits, the packed bytes must all be present, and the spare bits must be
// zero, so every vector has exactly one encoding.
func ParseBitVec(buf []byte, maxBits int) (BitVec, int, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || (k > 1 && buf[k-1] == 0) {
		return BitVec{}, 0, errors.New("bad bit count varint")
	}
	if n > uint64(maxBits) {
		return BitVec{}, 0, fmt.Errorf("declares %d bits, limit %d", n, maxBits)
	}
	end := k + int(n+7)/8
	if end > len(buf) {
		return BitVec{}, 0, fmt.Errorf("declares %d bits but only %d payload bytes remain", n, len(buf)-k)
	}
	if n&7 != 0 && buf[end-1]>>(n&7) != 0 {
		return BitVec{}, 0, errors.New("nonzero padding bits")
	}
	return BitVec{wire: buf[:end:end]}, end, nil
}

// Present reports whether the report carries a vector at all.
func (v BitVec) Present() bool { return v.wire != nil }

// Len returns the number of bits (0 for an absent vector).
func (v BitVec) Len() int {
	n, _ := binary.Uvarint(v.wire)
	return int(n)
}

// Wire returns the vector as the frame carries it — count, then packed bits —
// for an encoder to append verbatim. Callers must not modify it.
func (v BitVec) Wire() []byte { return v.wire }

// Packed returns the ⌈Len/8⌉ packed bytes: bit i is Packed()[i>>3]>>(i&7)&1.
// The slice aliases the vector; a mechanism filling a vector it just built
// writes through it and must leave the spare bits of the final byte zero.
func (v BitVec) Packed() []byte {
	_, k := binary.Uvarint(v.wire)
	return v.wire[k:]
}

// Get reports bit i (0 ≤ i < Len).
func (v BitVec) Get(i int) bool { return v.Packed()[i>>3]>>(i&7)&1 != 0 }

// Set sets bit i (0 ≤ i < Len).
func (v BitVec) Set(i int) {
	if i < 0 || i >= v.Len() {
		panic(fmt.Sprintf("protocol: bit %d out of range [0, %d)", i, v.Len()))
	}
	v.Packed()[i>>3] |= 1 << (i & 7)
}

// Randomizer is the client side of the protocol: it encodes one user's true
// type into a randomized Report. Randomize is the only operation in the whole
// system that ever sees a true type, and its output satisfies ε-LDP — that is
// the privacy boundary.
type Randomizer interface {
	// Domain returns the number of user types accepted.
	Domain() int
	// Epsilon returns the privacy budget each report satisfies.
	Epsilon() float64
	// Randomize encodes user type u (0 ≤ u < Domain) into one report using
	// the supplied randomness source.
	Randomize(u int, rng *rand.Rand) (Report, error)
}

// Aggregator is the server side of the protocol: it folds reports into a
// mergeable accumulator vector and converts a (merged) accumulator into
// unbiased per-type count estimates.
//
// Accumulator contract: a valid state is any []float64 of length StateLen
// that is either all zeros (empty) or the element-wise sum of states produced
// by Absorb. Summing two states yields the state of the concatenated report
// streams — the property sharded and distributed collectors rely on.
type Aggregator interface {
	// Domain returns the number of user types estimated.
	Domain() int
	// StateLen returns the accumulator width.
	StateLen() int
	// Check fully validates a report without touching any state. A report
	// that passes Check must be absorbable by Absorb without error.
	Check(r Report) error
	// Absorb validates r and folds it into acc (length StateLen). On error,
	// acc is left exactly as it was — Absorb never applies a report
	// partially.
	Absorb(acc []float64, r Report) error
	// EstimateCounts converts an accumulator holding count absorbed reports
	// into unbiased estimates of the per-type counts. acc is not modified.
	EstimateCounts(acc []float64, count float64) []float64
}
