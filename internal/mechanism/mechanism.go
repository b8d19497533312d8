// Package mechanism defines the common evaluation interface shared by the
// optimized factorization mechanism and every baseline in the paper's
// experiments: a mechanism must report its per-user-type variance profile on
// a workload, from which worst-case / average / data-dependent variance and
// sample complexity all follow (Corollaries 3.5, 3.6, 5.3, 5.4).
package mechanism

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Mechanism is an ε-LDP mechanism evaluated against linear-query workloads.
type Mechanism interface {
	// Name identifies the mechanism, e.g. "Randomized Response".
	Name() string
	// Domain returns the domain size n the mechanism was built for.
	Domain() int
	// Epsilon returns the privacy budget the mechanism satisfies.
	Epsilon() float64
	// Profile returns the per-user-type variance profile on the workload,
	// using the mechanism's estimator for the workload answers.
	Profile(w workload.Workload) (*strategy.VarianceProfile, error)
}

// Factorization adapts a strategy matrix to the Mechanism interface, using
// the variance-optimal reconstruction V = W·B of Theorem 3.10 ("for each
// mechanism we use the same Q across different workloads, but change V based
// on the workload", Section 6.1). The reconstruction factor B is computed
// once, on first use, and shared across workloads and goroutines.
type Factorization struct {
	name     string
	strategy *strategy.Strategy

	// The rank-aware reconstruction: set by NewFactorizationWithPrior, or by
	// the first Profile under once.
	once     sync.Once
	recon    *strategy.Recon
	reconErr error
}

// NewFactorization wraps a strategy as a Mechanism.
func NewFactorization(name string, s *strategy.Strategy) *Factorization {
	return &Factorization{name: name, strategy: s}
}

// NewFactorizationWithPrior wraps a strategy whose reconstruction is tuned to
// a prior distribution over user types (footnote 2 of the paper): V is
// variance-optimal under the prior-weighted loss rather than the uniform one.
// The reported variance profile still follows Theorem 3.4, which holds for
// any V with VQ = W, so worst-case and data-dependent metrics remain exact.
func NewFactorizationWithPrior(name string, s *strategy.Strategy, prior []float64) (*Factorization, error) {
	r, err := s.ReconstructionWithWeights(prior)
	if err != nil {
		return nil, fmt.Errorf("mechanism: %s: %w", name, err)
	}
	return &Factorization{name: name, strategy: s, recon: r}, nil
}

func (f *Factorization) Name() string { return f.name }

// Domain returns the strategy's domain size.
func (f *Factorization) Domain() int { return f.strategy.Domain() }

// Epsilon returns the strategy's privacy budget.
func (f *Factorization) Epsilon() float64 { return f.strategy.Eps }

// Strategy exposes the wrapped strategy (e.g. for simulation).
func (f *Factorization) Strategy() *strategy.Strategy { return f.strategy }

// Profile computes per-user variances with the cached reconstruction factor.
func (f *Factorization) Profile(w workload.Workload) (*strategy.VarianceProfile, error) {
	if w.Domain() != f.Domain() {
		return nil, fmt.Errorf("mechanism: %s built for n=%d, workload has n=%d", f.name, f.Domain(), w.Domain())
	}
	f.once.Do(func() {
		if f.recon == nil {
			f.recon, f.reconErr = f.strategy.Reconstruction()
		}
	})
	if f.reconErr != nil {
		return nil, fmt.Errorf("mechanism: %s: %w", f.name, f.reconErr)
	}
	// A rank-deficient strategy can only answer workloads in its row space
	// (constraint W = WQ⁺Q); anything else must fail loudly rather than
	// silently report the variance of a biased estimator.
	if err := f.recon.SupportsGram(w.Gram()); err != nil {
		return nil, fmt.Errorf("mechanism: %s: %w", f.name, err)
	}
	return f.strategy.VariancesWithRecon(w.Gram(), w.Queries(), f.recon.B)
}

// Additive is a mechanism of the form "each user reports A·e_u + noise",
// covering the distributed Matrix Mechanism (L1/Laplace and L2/Gaussian) and
// the Gaussian mechanism of Bassily [4]. The workload estimate is
// V·Σ reports with V = W·A⁺, so the per-user variance is the same for every
// user type: noiseVar·‖WA⁺‖²_F, where noiseVar is the per-coordinate noise
// variance required for ε-LDP.
type Additive struct {
	name string
	eps  float64
	// A is the k×n query strategy.
	A *linalg.Matrix
	// NoiseVar is the per-coordinate variance of the per-user noise.
	NoiseVar float64

	// A⁺, filled by the first Profile under once.
	once    sync.Once
	pinvA   *linalg.Matrix
	pinvErr error
}

// NewAdditive wraps an additive-noise strategy. noiseVar must already be
// calibrated to ε (see internal/baselines for the calibration rules).
func NewAdditive(name string, a *linalg.Matrix, eps, noiseVar float64) *Additive {
	return &Additive{name: name, eps: eps, A: a, NoiseVar: noiseVar}
}

func (ad *Additive) Name() string { return ad.name }

// Domain returns the number of columns of A.
func (ad *Additive) Domain() int { return ad.A.Cols() }

// Epsilon returns the privacy budget.
func (ad *Additive) Epsilon() float64 { return ad.eps }

// Profile returns the (uniform) per-user variance profile: every user
// contributes noiseVar·‖WA⁺‖²_F because the noise is data-independent.
func (ad *Additive) Profile(w workload.Workload) (*strategy.VarianceProfile, error) {
	n := ad.Domain()
	if w.Domain() != n {
		return nil, fmt.Errorf("mechanism: %s built for n=%d, workload has n=%d", ad.name, n, w.Domain())
	}
	ad.once.Do(func() { ad.pinvA, ad.pinvErr = pinv(ad.A) })
	if ad.pinvErr != nil {
		return nil, fmt.Errorf("mechanism: %s: %w", ad.name, ad.pinvErr)
	}
	// ‖WA⁺‖²_F = tr(A⁺ᵀ · WᵀW · A⁺).
	gp := linalg.Mul(w.Gram(), ad.pinvA)
	total := 0.0
	for i := 0; i < ad.pinvA.Rows(); i++ {
		total += linalg.Dot(ad.pinvA.Row(i), gp.Row(i))
	}
	v := ad.NoiseVar * total
	return &strategy.VarianceProfile{
		PerUser: linalg.Constant(n, v),
		Queries: w.Queries(),
	}, nil
}

// pinv computes the Moore–Penrose pseudo-inverse of a general matrix a via
// the PSD pseudo-inverse of its Gram matrix: A⁺ = (AᵀA)⁺Aᵀ.
func pinv(a *linalg.Matrix) (*linalg.Matrix, error) {
	g := linalg.Gram(a)
	gp, err := linalg.PinvPSD(g, 1e-12)
	if err != nil {
		return nil, err
	}
	return linalg.MulABt(gp, a), nil
}

// PairwiseColumnDiameter returns max_{u,v} ‖a_u − a_v‖ over columns of a, in
// the given norm (1 or 2). This is the exact LDP sensitivity of the additive
// report A·e_u: neighboring "databases" in the local model are two user
// types.
func PairwiseColumnDiameter(a *linalg.Matrix, norm int) float64 {
	n := a.Cols()
	cols := make([][]float64, n)
	for u := 0; u < n; u++ {
		cols[u] = a.Col(u)
	}
	maxD := 0.0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := 0.0
			switch norm {
			case 1:
				for i := range cols[u] {
					d += math.Abs(cols[u][i] - cols[v][i])
				}
			case 2:
				for i := range cols[u] {
					t := cols[u][i] - cols[v][i]
					d += t * t
				}
				d = math.Sqrt(d)
			default:
				panic(fmt.Sprintf("mechanism: unsupported norm %d", norm))
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}
