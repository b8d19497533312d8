package ldp

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/freqoracle"
	"repro/internal/linalg"
	"repro/internal/protocol"
	"repro/internal/strategy"
)

// Wire format: every artifact this library persists is a gob stream of
// (header, payload). The header carries a magic string, a format version, and
// the payload kind, so readers reject foreign files, future formats, and
// kind confusion (an oracle file fed to LoadStrategy) with a precise error
// instead of gob soup. Bump wireVersion when the payload schema changes;
// readers accept exactly the versions they know how to decode.
const (
	wireMagic   = "LDPWIRE"
	wireVersion = 1

	wireKindStrategy = "strategy"
	wireKindOracle   = "oracle"

	// Hard bounds a decoded artifact must satisfy before any of its values
	// are used. They exist for loaders fed untrusted bytes (FuzzLoadStrategy
	// surfaced a Rows×Cols overflow that slipped a crafted file past the
	// length check below): dimensions are capped so their product is
	// computed without overflow, and ε must be a positive finite number —
	// NaN propagates through every downstream exp/ratio check, and beyond
	// maxWireEps the mechanism arithmetic degenerates (exp overflow) while
	// the "privacy" bought is none.
	maxWireDim   = 1 << 20
	maxWireElems = 1 << 26
	maxWireEps   = 64
)

// checkWireEps validates a deserialized strategy privacy budget through the
// shared predicate (protocol.CheckEpsilon) with the wire layer's cap.
func checkWireEps(eps float64) error {
	if err := protocol.CheckEpsilon(eps, maxWireEps); err != nil {
		return fmt.Errorf("ldp: wire: %w", err)
	}
	return nil
}

// wireHeader prefixes every serialized artifact.
type wireHeader struct {
	Magic   string
	Version int
	Kind    string
}

// strategyWire is the version-1 payload for strategy matrices.
type strategyWire struct {
	Rows, Cols int
	Eps        float64
	Data       []float64
}

// oracleWire is the version-1 payload for frequency-oracle configurations.
// Oracles are fully determined by (name, domain, ε), so no matrix is stored.
type oracleWire struct {
	Name   string
	Domain int
	Eps    float64
}

func writeHeader(enc *gob.Encoder, kind string) error {
	return enc.Encode(wireHeader{Magic: wireMagic, Version: wireVersion, Kind: kind})
}

func readHeader(dec *gob.Decoder, wantKind string) error {
	var h wireHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("ldp: not an ldp wire file (bad header; a pre-versioning file must be re-saved): %w", err)
	}
	if h.Magic != wireMagic {
		return fmt.Errorf("ldp: not an ldp wire file (bad magic %q; a pre-versioning file must be re-saved)", h.Magic)
	}
	if h.Version != wireVersion {
		return fmt.Errorf("ldp: unsupported wire version %d (this library reads version %d)", h.Version, wireVersion)
	}
	if h.Kind != wantKind {
		return fmt.Errorf("ldp: wire file holds a %q, want a %q", h.Kind, wantKind)
	}
	return nil
}

// StrategyDigest fingerprints a strategy's exact channel — dimensions, ε,
// and every matrix entry bit-for-bit (FNV-1a 64, hex). Two strategies of the
// same shape and declared ε are still different mechanisms; a collector
// aggregating under one must reject reports randomized under the other, and
// name/domain/ε cannot tell them apart. The transport handshake
// (RemoteCollector.Verify against /healthz) compares digests for exactly
// that reason. Oracles need no digest: (name, domain, ε) fully determines
// them.
func StrategyDigest(s *Strategy) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(uint64(s.Q.Rows()))
	put(uint64(s.Q.Cols()))
	put(math.Float64bits(s.Eps))
	for _, v := range s.Q.Data() {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WorkloadDigest fingerprints a workload canonically (FNV-1a 64, hex): name,
// domain, query count, and — when p·n fits the wire bound — every entry of W
// bit-for-bit in row order (streamed: O(p·n) time, O(n) memory). Past that
// bound the digest hashes the Gram matrix WᵀW instead (the optimizer depends
// on W only through its Gram, so two workloads with equal Grams get the same
// strategy), and past even that, the Frobenius norm. Each representation is
// tagged into the hash so a matrix-hashed and a Gram-hashed workload can never
// collide by construction. The digest is the cache key the EstimatorPool and
// the query wire protocol use to name "the same workload" across processes
// and restarts.
func WorkloadDigest(w Workload) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	name := w.Name()
	put(uint64(len(name)))
	_, _ = h.Write([]byte(name))
	put(uint64(w.Domain()))
	put(uint64(w.Queries()))
	n, p := int64(w.Domain()), int64(w.Queries())
	switch {
	case p*n <= maxWireElems:
		put(0) // representation tag: full W, row by row through one n-vector
		row := make([]float64, n)
		for i := 0; i < int(p); i++ {
			w.QueryRow(i, row)
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
	case n*n <= maxWireElems:
		put(1) // representation tag: Gram
		for _, v := range w.Gram().Data() {
			put(math.Float64bits(v))
		}
	default:
		put(2) // representation tag: Frobenius norm only
		put(math.Float64bits(w.FrobNorm2()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveStrategy serializes an optimized strategy under the versioned wire
// header, so the expensive offline optimization can be done once and shipped
// to clients.
func SaveStrategy(w io.Writer, s *Strategy) error {
	enc := gob.NewEncoder(w)
	if err := writeHeader(enc, wireKindStrategy); err != nil {
		return err
	}
	return enc.Encode(strategyWire{
		Rows: s.Q.Rows(),
		Cols: s.Q.Cols(),
		Eps:  s.Eps,
		Data: s.Q.Data(),
	})
}

// LoadStrategy deserializes a strategy written by SaveStrategy, rejecting
// unknown wire versions, and validates its LDP guarantee (to
// EpsValidationTol) before returning it.
func LoadStrategy(r io.Reader) (*Strategy, error) {
	dec := gob.NewDecoder(r)
	if err := readHeader(dec, wireKindStrategy); err != nil {
		return nil, err
	}
	var wire strategyWire
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("ldp: decode strategy: %w", err)
	}
	// Bounds before arithmetic: with both dimensions capped at maxWireDim,
	// the product below cannot overflow int64, so a crafted pair like
	// 2³²×2³² can no longer wrap around to match a short Data slice.
	if wire.Rows <= 0 || wire.Cols <= 0 || wire.Rows > maxWireDim || wire.Cols > maxWireDim {
		return nil, fmt.Errorf("ldp: corrupt strategy: dimensions %dx%d out of range", wire.Rows, wire.Cols)
	}
	if elems := int64(wire.Rows) * int64(wire.Cols); elems > maxWireElems || int64(len(wire.Data)) != elems {
		return nil, fmt.Errorf("ldp: corrupt strategy: %dx%d with %d values", wire.Rows, wire.Cols, len(wire.Data))
	}
	if err := checkWireEps(wire.Eps); err != nil {
		return nil, err
	}
	for _, v := range wire.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("ldp: corrupt strategy: non-finite matrix entry")
		}
	}
	s := strategy.New(linalg.NewFrom(wire.Rows, wire.Cols, wire.Data), wire.Eps)
	if err := s.Validate(EpsValidationTol); err != nil {
		return nil, fmt.Errorf("ldp: loaded strategy invalid: %w", err)
	}
	return s, nil
}

// SaveOracle serializes a frequency-oracle configuration under the same
// versioned wire header as strategies, so deployments persist both mechanism
// families through one format.
func SaveOracle(w io.Writer, o FrequencyOracle) error {
	enc := gob.NewEncoder(w)
	if err := writeHeader(enc, wireKindOracle); err != nil {
		return err
	}
	return enc.Encode(oracleWire{Name: o.Name(), Domain: o.Domain(), Eps: o.Epsilon()})
}

// LoadOracle deserializes an oracle configuration written by SaveOracle,
// rejecting unknown wire versions and unknown oracle names.
func LoadOracle(r io.Reader) (FrequencyOracle, error) {
	dec := gob.NewDecoder(r)
	if err := readHeader(dec, wireKindOracle); err != nil {
		return nil, err
	}
	var wire oracleWire
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("ldp: decode oracle: %w", err)
	}
	if wire.Domain <= 0 || wire.Domain > maxWireDim {
		return nil, fmt.Errorf("ldp: corrupt oracle: domain %d out of range", wire.Domain)
	}
	// ε validity (finite, positive, within each family's cap) is the oracle
	// constructors' single source of truth — ByName rejects bad budgets with
	// family-specific bounds, so no separate wire-side ε policy can drift.
	o, err := freqoracle.ByName(wire.Name, wire.Domain, wire.Eps)
	if err != nil {
		return nil, fmt.Errorf("ldp: loaded oracle invalid: %w", err)
	}
	return o, nil
}
