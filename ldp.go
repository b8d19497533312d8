// Package ldp is a workload-adaptive library for answering linear counting
// queries under local differential privacy (LDP).
//
// It implements the workload factorization mechanism of McKenna, Maity,
// Mazumdar and Miklau, "A workload-adaptive mechanism for linear queries
// under local differential privacy" (VLDB 2020, arXiv:2002.01582): given a
// workload of linear queries and a privacy budget ε, Optimize searches an
// expressive class of unbiased ε-LDP mechanisms for one that minimizes the
// expected total squared error on exactly those queries. The library also
// ships every baseline mechanism from the paper's evaluation, the standard
// workload families, error lower bounds, consistency post-processing, and an
// end-to-end client/server protocol implementation.
//
// # Quick start
//
// Every mechanism — optimized strategy matrices and the frequency oracles
// (OUE, OLH, RAPPOR) alike — speaks one streaming protocol: a Randomizer
// encodes a user's type into a Report on the client, an Aggregator absorbs
// reports on the collector.
//
//	w := ldp.Prefix(256)                          // the queries you care about
//	mech, err := ldp.Optimize(ctx, w, 1.0)        // ε = 1 mechanism tuned to them
//	...
//	rz, _ := ldp.NewRandomizer(mech.Strategy())
//	client, _ := ldp.NewClient(rz)
//	rep, _ := client.Randomize(userType, rng)     // each user runs this locally
//	...
//	agg, _ := ldp.NewAggregator(mech.Strategy())
//	col, _ := ldp.NewCollector(agg, w, 0)         // sharded, goroutine-safe
//	col.Ingest(rep)                               // from any handler goroutine
//	...
//	est, _ := ldp.NewEstimator(agg, w)            // the one read path
//	snap := col.Snap()                            // immutable, mergeable view
//	answers, _ := est.Answers(snap)               // unbiased workload estimates
//
// A FrequencyOracle is its own Randomizer and Aggregator, so the same
// pipeline runs with `ldp.NewOUE(n, eps)` in place of the two strategy
// adapters. Snapshots from several collectors (local or remote ldpserve
// shards) merge with Snapshot.Merge into one answerable view — see
// cmd/ldpquery -servers. See README.md for the full tour.
//
// All heavy computation is expressed against the workload's Gram matrix WᵀW,
// so workloads with millions of rows (e.g. AllRange) remain cheap.
package ldp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/lowerbound"
	"repro/internal/mechanism"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Workload is a set of linear counting queries over a discrete domain; see
// the constructors Histogram, Prefix, AllRange, AllMarginals, KWayMarginals,
// Parity, WidthRange, NewWorkload and Stacked.
type Workload = workload.Workload

// Mechanism is an ε-LDP mechanism that can be evaluated on workloads.
type Mechanism = mechanism.Mechanism

// Strategy is an ε-LDP strategy matrix (the conditional distribution each
// user's randomizer follows).
type Strategy = strategy.Strategy

// VarianceProfile holds per-user-type variances of a mechanism on a workload;
// it exposes worst-case/average variance and sample complexity.
type VarianceProfile = strategy.VarianceProfile

// Histogram returns the identity workload (all point queries) on n types.
func Histogram(n int) Workload { return workload.NewHistogram(n) }

// Prefix returns the workload of all prefix ranges (the empirical CDF).
func Prefix(n int) Workload { return workload.NewPrefix(n) }

// AllRange returns the workload of all n(n+1)/2 contiguous range queries.
func AllRange(n int) Workload { return workload.NewAllRange(n) }

// AllMarginals returns all marginal queries over the binary domain {0,1}^d.
func AllMarginals(d int) Workload { return workload.NewAllMarginals(d) }

// KWayMarginals returns all k-attribute marginal queries over {0,1}^d.
func KWayMarginals(d, k int) Workload { return workload.NewKWayMarginals(d, k) }

// Parity returns all parity (character) queries over {0,1}^d.
func Parity(d int) Workload { return workload.NewParity(d) }

// WidthRange returns all width-w sliding-window range queries on n types.
func WidthRange(n, w int) Workload { return workload.NewWidthRange(n, w) }

// Product returns the Kronecker product workload a ⊗ b over the flattened
// product domain (u = u_a·n_b + u_b): every combination of a query from a
// with a query from b. Multi-dimensional workloads — e.g. 2-D range queries
// as Product(AllRange(r), AllRange(c)) — are expressed this way.
func Product(a, b Workload) Workload { return workload.NewProduct(a, b) }

// NewWorkload wraps an arbitrary query matrix (rows are queries) as a
// workload. The paper places no restrictions on W: duplicated or linearly
// dependent rows are fine and simply weight those queries more. Every
// coefficient must be finite.
func NewWorkload(name string, rows [][]float64) (Workload, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ldp: workload needs at least one query")
	}
	n := len(rows[0])
	m := linalg.New(len(rows), n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("ldp: query %d has %d coefficients, want %d", i, len(r), n)
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ldp: query %d coefficient %d is %v, want a finite number", i, j, v)
			}
		}
		m.SetRow(i, r)
	}
	return workload.NewExplicit(name, m), nil
}

// Stacked concatenates workloads over the same domain with positive, finite
// weights expressing relative importance.
func Stacked(name string, parts []Workload, weights []float64) Workload {
	return workload.NewStacked(name, parts, weights)
}

// WorkloadByName builds one of the paper's six evaluation workloads
// ("Histogram", "Prefix", "AllRange", "AllMarginals", "3-WayMarginals",
// "Parity") for a domain of size n.
func WorkloadByName(name string, n int) (Workload, error) { return workload.ByName(name, n) }

// PaperWorkloads lists the six evaluation workload names in the paper's
// order.
var PaperWorkloads = workload.PaperWorkloads

// Optimized is the workload-adaptive mechanism produced by Optimize. It
// embeds Factorization (so it satisfies Mechanism) and carries the
// optimization diagnostics.
type Optimized struct {
	*mechanism.Factorization
	// Objective is the final value of L(Q) (Theorem 3.11).
	Objective float64
	// Iterations is the number of projected-gradient iterations run.
	Iterations int
	// History is the objective trajectory.
	History []float64
}

// Optimize runs the paper's strategy optimization (Algorithm 2) and returns
// the mechanism tailored to workload w at privacy budget eps. The zero option
// set uses the paper's defaults; see the With... options for iterations,
// seeding, priors (footnote 2), warm starts, and progress observation. The
// context is checked inside the projected-gradient loop (and the step-size
// pilot runs), so cancellation and deadlines take effect within one
// iteration.
func Optimize(ctx context.Context, w Workload, eps float64, opts ...OptimizeOption) (*Optimized, error) {
	var s optimizeSettings
	for _, opt := range opts {
		if opt != nil {
			opt(&s)
		}
	}
	s.core.Ctx = ctx

	var res *core.Result
	if s.warmStarts {
		ms, err := baselines.Competitors(w, eps)
		if err != nil {
			return nil, err
		}
		res, err = core.OptimizeBest(w, eps, s.core, baselines.WarmStarts(ms)...)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		res, err = core.Optimize(w, eps, s.core)
		if err != nil {
			return nil, err
		}
	}

	fac := mechanism.NewFactorization("Optimized", res.Strategy)
	if res.PriorWeights != nil {
		var err error
		fac, err = mechanism.NewFactorizationWithPrior("Optimized (prior)", res.Strategy, res.PriorWeights)
		if err != nil {
			return nil, err
		}
	}
	return &Optimized{
		Factorization: fac,
		Objective:     res.Objective,
		Iterations:    res.Iters,
		History:       res.History,
	}, nil
}

// OptimizeStrategy is Optimize returning the raw strategy matrix, for callers
// that manage mechanisms themselves.
func OptimizeStrategy(ctx context.Context, w Workload, eps float64, opts ...OptimizeOption) (*Strategy, error) {
	m, err := Optimize(ctx, w, eps, opts...)
	if err != nil {
		return nil, err
	}
	return m.Strategy(), nil
}

// RandomizedResponse returns Warner's randomized response mechanism.
func RandomizedResponse(n int, eps float64) Mechanism {
	return baselines.RandomizedResponse(n, eps)
}

// HadamardResponse returns the Hadamard response mechanism of Acharya et al.
func HadamardResponse(n int, eps float64) Mechanism {
	return baselines.HadamardResponse(n, eps)
}

// Hierarchical returns the hierarchical range-query mechanism with the given
// branching factor (use 4 for the paper's configuration).
func Hierarchical(n int, eps float64, branch int) (Mechanism, error) {
	return baselines.Hierarchical(n, eps, branch)
}

// Fourier returns the Fourier marginal-release mechanism over {0,1}^d with
// parities of order ≤ maxOrder (0 = all orders).
func Fourier(d int, eps float64, maxOrder int) (Mechanism, error) {
	return baselines.Fourier(d, eps, maxOrder)
}

// SubsetSelection returns the subset-selection mechanism of Ye & Barg
// (d ≤ 0 picks the optimal subset size). Only available for small domains:
// the strategy has C(n, d) rows.
func SubsetSelection(n int, eps float64, d int) (Mechanism, error) {
	return baselines.SubsetSelection(n, eps, d)
}

// RAPPOR returns the basic one-hot RAPPOR mechanism. Only available for small
// domains: the strategy has 2^n rows.
func RAPPOR(n int, eps float64) (Mechanism, error) {
	return baselines.RAPPOR(n, eps)
}

// MatrixMechanismL1 returns the distributed Matrix Mechanism with Laplace
// noise, tailored to w.
func MatrixMechanismL1(w Workload, eps float64) (Mechanism, error) {
	return baselines.MatrixMechanismL1(w, eps)
}

// MatrixMechanismL2 returns the distributed Matrix Mechanism with Gaussian
// noise, tailored to w.
func MatrixMechanismL2(w Workload, eps float64) (Mechanism, error) {
	return baselines.MatrixMechanismL2(w, eps)
}

// Gaussian returns the one-hot Gaussian mechanism of Bassily.
func Gaussian(n int, eps float64) Mechanism { return baselines.Gaussian(n, eps) }

// Competitors returns the paper's competitor mechanisms for a workload
// (Figure 1's legend minus "Optimized").
func Competitors(w Workload, eps float64) ([]Mechanism, error) {
	return baselines.Competitors(w, eps)
}

// Evaluate computes the per-user-type variance profile of a mechanism on a
// workload.
func Evaluate(m Mechanism, w Workload) (*VarianceProfile, error) { return m.Profile(w) }

// SampleComplexity returns the number of users a mechanism needs to achieve
// normalized worst-case variance alpha on a workload (Corollary 5.4; the
// paper's evaluation metric with α = 0.01).
func SampleComplexity(m Mechanism, w Workload, alpha float64) (float64, error) {
	vp, err := m.Profile(w)
	if err != nil {
		return 0, err
	}
	return vp.SampleComplexity(alpha), nil
}

// LowerBoundObjective returns the SVD lower bound on the optimization
// objective achievable by any ε-LDP factorization mechanism (Theorem 5.6).
func LowerBoundObjective(w Workload, eps float64) (float64, error) {
	return lowerbound.Objective(w, eps)
}

// LowerBoundSampleComplexity returns the implied sample-complexity lower
// bound at normalized variance alpha (Corollary 5.7 + Corollary 5.4).
func LowerBoundSampleComplexity(w Workload, eps, alpha float64) (float64, error) {
	return lowerbound.SampleComplexity(w, eps, alpha)
}
