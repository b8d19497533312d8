package ldp

import "repro/internal/freqoracle"

// FrequencyOracle is a practical histogram-estimation protocol (unary
// encoding or local hashing) that scales to domains far beyond what an
// explicit strategy matrix allows. These are the mechanisms of Wang et al.
// the paper cites as histogram state of the art; they estimate the full
// histogram, whereas Optimize adapts to arbitrary workloads.
//
// Every oracle implements both Randomizer and Aggregator, so it plugs
// directly into the same streaming Client/Server/Collector pipeline (and
// SimulateProtocol) as optimized strategies — no separate batch path.
type FrequencyOracle = freqoracle.Oracle

// NewOUE returns the Optimized Unary Encoding frequency oracle.
func NewOUE(n int, eps float64) (FrequencyOracle, error) { return freqoracle.NewOUE(n, eps) }

// NewOLH returns the Optimized Local Hashing frequency oracle
// (O(log g)-bit reports, any domain size).
func NewOLH(n int, eps float64) (FrequencyOracle, error) { return freqoracle.NewOLH(n, eps) }

// NewRAPPOROracle returns the basic symmetric RAPPOR frequency oracle without
// materializing its 2^n-row strategy matrix.
func NewRAPPOROracle(n int, eps float64) (FrequencyOracle, error) {
	return freqoracle.NewRAPPOR(n, eps)
}

// OracleByName constructs the named frequency oracle ("OUE", "OLH",
// "RAPPOR") — the inverse of FrequencyOracle.Name, used by tooling that
// selects mechanisms from configuration.
func OracleByName(name string, n int, eps float64) (FrequencyOracle, error) {
	return freqoracle.ByName(name, n, eps)
}
