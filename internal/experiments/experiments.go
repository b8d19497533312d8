// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each FigureX function produces the same rows/series
// the paper plots; the harness is shared by cmd/ldpbench and the repository's
// benchmark suite.
//
// Default configurations are scaled down (smaller domains, fewer points,
// fewer restarts) so the full suite runs in minutes on one CPU; Config.Full
// requests paper-scale parameters. The paper's qualitative findings — which
// mechanism wins, the slopes in log-log space, the crossovers — hold at both
// scales.
//
// Sweep grids fan out across a bounded worker pool (Config.Workers; default
// one worker per CPU). Every cell of a grid derives its random seed from the
// base seed and the cell's coordinates rather than from iteration order, so
// parallel and serial sweeps — and any two worker counts — produce
// byte-identical figures.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/mechanism"
	"repro/internal/simulate"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Alpha is the target normalized variance for sample complexity
	// (the paper uses 0.01).
	Alpha float64
	// Full requests paper-scale parameters (n = 512 etc.); default is a
	// reduced scale that completes in minutes.
	Full bool
	// Seed drives all randomness. Every sweep cell derives its own seed from
	// Seed and the cell's grid coordinates (cellSeed), so results are
	// reproducible cell-by-cell at any Workers setting.
	Seed int64
	// Iters overrides the optimizer iteration budget (0 = default).
	Iters int
	// Workers bounds the sweep worker pool: sweep cells fan out across this
	// many goroutines (0 = one per CPU, 1 = serial). Figure outputs are
	// byte-identical at every setting.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.Iters <= 0 {
		if c.Full {
			c.Iters = 500
		} else {
			c.Iters = 250
		}
	}
	return c
}

// MechanismNames is the legend of Figures 1 and 2, in the paper's order.
var MechanismNames = []string{
	"Randomized Response", "Hadamard", "Hierarchical", "Fourier",
	"Matrix Mechanism (L1)", "Matrix Mechanism (L2)", "Optimized",
}

// Series is one mechanism's curve across the sweep points of a figure.
type Series struct {
	Mechanism string
	// Values[i] is the sample complexity at sweep point i (+Inf when the
	// mechanism is inapplicable at that point).
	Values []float64
}

// Sweep is one panel of Figure 1 or Figure 2: a workload with the sweep
// coordinates and one series per mechanism.
type Sweep struct {
	Workload string
	// Points holds the x-coordinates (ε values or domain sizes).
	Points []float64
	Series []Series
}

// mechanismsFor builds the paper's seven mechanisms for one (workload, ε)
// configuration: the six competitors plus Optimized. The optimizer considers
// the competitors' strategy matrices as warm-start candidates
// (core.OptimizeBest), so the optimized mechanism dominates every
// factorization baseline even at reduced iteration budgets.
func mechanismsFor(w workload.Workload, eps float64, cfg Config) ([]mechanism.Mechanism, error) {
	ms, err := baselines.Competitors(w, eps)
	if err != nil {
		return nil, err
	}
	res, err := core.OptimizeBest(w, eps, core.Options{Iters: cfg.Iters, Seed: cfg.Seed}, baselines.WarmStarts(ms)...)
	if err != nil {
		return nil, err
	}
	return append(ms, mechanism.NewFactorization("Optimized", res.Strategy)), nil
}

// sampleComplexityRow evaluates each mechanism on w, returning the map
// mechanism name → sample complexity.
func sampleComplexityRow(ms []mechanism.Mechanism, w workload.Workload, alpha float64) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		vp, err := m.Profile(w)
		if err != nil {
			out[m.Name()] = math.Inf(1)
			continue
		}
		out[m.Name()] = vp.SampleComplexity(alpha)
	}
	return out
}

// figureTag namespaces cellSeed coordinates so different figures never share
// per-cell seeds.
const (
	tagEpsilon = 1
	tagDomain  = 2
	tagInit    = 3
	tagWNNLS   = 4
)

// sweepGrid runs the (workload × point) grid shared by Figures 1 and 2:
// every cell builds its workload, optimizes at its derived seed, and
// evaluates sample complexity; cells fan out across cfg.Workers goroutines
// and are assembled in grid order, so the result is identical at any worker
// count.
func sweepGrid(cfg Config, tag int, points []float64, domainFor func(p float64) int, epsFor func(p float64) float64) ([]Sweep, error) {
	names := workload.PaperWorkloads
	rows := make([]map[string]float64, len(names)*len(points))
	err := forEachCell(len(rows), cfg.Workers, func(i int) error {
		wi, pi := i/len(points), i%len(points)
		w, err := workload.ByName(names[wi], domainFor(points[pi]))
		if err != nil {
			return err
		}
		cell := cfg
		cell.Seed = cellSeed(cfg.Seed, tag, wi, pi)
		ms, err := mechanismsFor(w, epsFor(points[pi]), cell)
		if err != nil {
			return err
		}
		rows[i] = sampleComplexityRow(ms, w, cfg.Alpha)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Sweep, 0, len(names))
	for wi, name := range names {
		sweep := Sweep{Workload: name, Points: points}
		for _, mn := range MechanismNames {
			values := make([]float64, len(points))
			for pi := range points {
				v, ok := rows[wi*len(points)+pi][mn]
				if !ok {
					v = math.Inf(1)
				}
				values[pi] = v
			}
			sweep.Series = append(sweep.Series, Series{Mechanism: mn, Values: values})
		}
		out = append(out, sweep)
	}
	return out, nil
}

// FigureEpsilon reproduces Figure 1: sample complexity of the seven
// mechanisms on the six workloads as ε varies, at a fixed domain size
// (512 at paper scale, 32 reduced).
func FigureEpsilon(cfg Config) ([]Sweep, error) {
	cfg = cfg.withDefaults()
	n := 32
	epsilons := []float64{0.5, 1.0, 2.0, 4.0}
	if cfg.Full {
		n = 512
		epsilons = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	}
	return sweepGrid(cfg, tagEpsilon, epsilons,
		func(float64) int { return n },
		func(p float64) float64 { return p })
}

// FigureDomain reproduces Figure 2: sample complexity as the domain size n
// varies at ε = 1 (n up to 1024 at paper scale, 64 reduced).
func FigureDomain(cfg Config) ([]Sweep, error) {
	cfg = cfg.withDefaults()
	domains := []float64{8, 16, 32, 64}
	if cfg.Full {
		domains = []float64{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	return sweepGrid(cfg, tagDomain, domains,
		func(p float64) int { return int(p) },
		func(float64) float64 { return 1.0 })
}

// DatasetRow is one bar group of Figure 3a: a dataset with the sample
// complexity of each mechanism on it.
type DatasetRow struct {
	Dataset string
	// Values[mechanism name] is the data-dependent sample complexity
	// (Section 6.4: L_worst replaced with the Theorem 3.4 expression).
	Values map[string]float64
}

// FigureDatasets reproduces Figure 3a: data-dependent sample complexity on
// the three benchmark datasets (synthetic stand-ins with the published shape
// characteristics; see internal/dataset) plus the worst case, for the Prefix
// workload at ε = 1.
func FigureDatasets(cfg Config) ([]DatasetRow, error) {
	cfg = cfg.withDefaults()
	n := 64
	if cfg.Full {
		n = 512
	}
	const eps = 1.0
	w := workload.NewPrefix(n)
	ms, err := mechanismsFor(w, eps, cfg)
	if err != nil {
		return nil, err
	}
	// One variance profile per mechanism, computed once (the seed recomputed
	// it per dataset) and in parallel.
	profiles := make([]*strategy.VarianceProfile, len(ms))
	if err := forEachCell(len(ms), cfg.Workers, func(i int) error {
		vp, err := ms[i].Profile(w)
		if err != nil {
			return nil // inapplicable mechanism: leave profile nil → +Inf below
		}
		profiles[i] = vp
		return nil
	}); err != nil {
		return nil, err
	}
	total := 100000
	var rows []DatasetRow
	for _, ds := range dataset.Names {
		x, err := dataset.ByName(ds, n, total, cfg.Seed+17)
		if err != nil {
			return nil, err
		}
		row := DatasetRow{Dataset: ds, Values: map[string]float64{}}
		for i, m := range ms {
			if profiles[i] == nil {
				row.Values[m.Name()] = math.Inf(1)
				continue
			}
			row.Values[m.Name()] = profiles[i].SampleComplexityOnData(x, cfg.Alpha)
		}
		rows = append(rows, row)
	}
	worst := DatasetRow{Dataset: "Worst-case", Values: map[string]float64{}}
	for i, m := range ms {
		if profiles[i] == nil {
			worst.Values[m.Name()] = math.Inf(1)
			continue
		}
		worst.Values[m.Name()] = profiles[i].SampleComplexity(cfg.Alpha)
	}
	rows = append(rows, worst)
	return rows, nil
}

// InitPoint is one (workload, m) cell of Figure 3b.
type InitPoint struct {
	Workload string
	// MFactor is m/n.
	MFactor int
	// Min, Median, Max are worst-case-variance ratios to the best strategy
	// found across all trials and m values for this workload.
	Min, Median, Max float64
}

// FigureInit reproduces Figure 3b: robustness of the optimization to the
// random initialization and to the choice of m, reported as worst-case
// variance ratios to the best found (n = 64 and 10 restarts at paper scale;
// n = 16 and 5 restarts reduced).
func FigureInit(cfg Config) ([]InitPoint, error) {
	cfg = cfg.withDefaults()
	n, trials := 16, 5
	factors := []int{1, 2, 4, 8}
	if cfg.Full {
		n, trials = 64, 10
		factors = []int{1, 4, 8, 12, 16}
	}
	const eps = 1.0
	names := workload.PaperWorkloads
	// One cell per (workload, m-factor, trial) restart; each runs its own
	// optimization at a coordinate-derived seed.
	vars := make([]float64, len(names)*len(factors)*trials)
	err := forEachCell(len(vars), cfg.Workers, func(i int) error {
		wi := i / (len(factors) * trials)
		fi := i / trials % len(factors)
		trial := i % trials
		w, err := workload.ByName(names[wi], n)
		if err != nil {
			return err
		}
		// The seed keeps the seed repo's formula — already derived from the
		// cell coordinates (m-factor, trial), not iteration order.
		res, err := core.Optimize(w, eps, core.Options{
			Iters:   cfg.Iters,
			Seed:    cfg.Seed + int64(1000*factors[fi]+trial),
			Outputs: factors[fi] * w.Domain(),
		})
		if err != nil {
			return err
		}
		vp, err := res.Strategy.Variances(w.Gram(), w.Queries())
		if err != nil {
			return err
		}
		vars[i] = vp.Worst(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []InitPoint
	for wi, name := range names {
		block := vars[wi*len(factors)*trials : (wi+1)*len(factors)*trials]
		best := math.Inf(1)
		for _, v := range block {
			if v < best {
				best = v
			}
		}
		for fi, f := range factors {
			vs := block[fi*trials : (fi+1)*trials]
			mn, md, mx := minMedianMax(vs)
			out = append(out, InitPoint{
				Workload: name, MFactor: f,
				Min: mn / best, Median: md / best, Max: mx / best,
			})
		}
	}
	return out, nil
}

// ScalePoint is one domain size of Figure 3c.
type ScalePoint struct {
	Domain int
	// PerIteration is the measured wall-clock time of one optimization
	// iteration (objective + gradient + projection) at m = 4n.
	PerIteration time.Duration
}

// FigureScalability reproduces Figure 3c: per-iteration optimization time
// versus domain size, with W = I (the per-iteration cost depends on WᵀW only
// through its size; Section 6.6). It deliberately stays serial — it is a
// timing measurement, and concurrent cells would contend for cores and skew
// the readings (the optimizer itself still uses the parallel kernels, which
// is exactly what the figure should measure).
func FigureScalability(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.withDefaults()
	domains := []int{16, 32, 64, 128}
	if cfg.Full {
		domains = []int{16, 32, 64, 128, 256, 512, 1024}
	}
	var out []ScalePoint
	for _, n := range domains {
		d, err := MeasureIteration(n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{Domain: n, PerIteration: d})
	}
	return out, nil
}

// MeasureIteration times one projected-gradient iteration at m = 4n with
// W = I, averaging over enough repetitions for a stable reading.
func MeasureIteration(n int, seed int64) (time.Duration, error) {
	w := workload.NewHistogram(n)
	iters := 0
	var res *core.Result
	start := time.Now()
	reps := 3
	if n <= 64 {
		reps = 15
	}
	res, err := core.Optimize(w, 1.0, core.Options{
		Iters:    reps,
		Seed:     seed,
		StepSize: 1e-9, // tiny fixed step: we are timing, not optimizing
	})
	if err != nil {
		return 0, err
	}
	iters = res.Iters
	elapsed := time.Since(start)
	if iters == 0 {
		iters = 1
	}
	return elapsed / time.Duration(iters), nil
}

// WNNLSRow is one workload group of Figure 4.
type WNNLSRow struct {
	Workload string
	// Default and WNNLS are Monte-Carlo normalized variances (Definition 5.2)
	// of the optimized mechanism without and with consistency post-processing.
	Default, WNNLS float64
	// Improvement = Default / WNNLS.
	Improvement float64
}

// FigureWNNLS reproduces Figure 4: normalized variance of the optimized
// mechanism with and without the WNNLS extension on HEPTH-like data with
// N = 1000 users at ε = 1 (100 simulations at paper scale, 20 reduced).
func FigureWNNLS(cfg Config) ([]WNNLSRow, error) {
	cfg = cfg.withDefaults()
	n, trials := 32, 20
	if cfg.Full {
		n, trials = 512, 100
	}
	const eps = 1.0
	const numUsers = 1000
	x, err := dataset.ByName("HEPTH", n, numUsers, cfg.Seed+29)
	if err != nil {
		return nil, err
	}
	names := workload.PaperWorkloads
	out := make([]WNNLSRow, len(names))
	err = forEachCell(len(names), cfg.Workers, func(wi int) error {
		w, err := workload.ByName(names[wi], n)
		if err != nil {
			return err
		}
		res, err := core.Optimize(w, eps, core.Options{Iters: cfg.Iters, Seed: cellSeed(cfg.Seed, tagWNNLS, wi, 0)})
		if err != nil {
			return err
		}
		p, err := simulate.NewProtocol(res.Strategy, w)
		if err != nil {
			return err
		}
		mcSeed := cellSeed(cfg.Seed, tagWNNLS, wi, 1)
		raw, err := p.MonteCarlo(x, trials, false, mcSeed)
		if err != nil {
			return err
		}
		cons, err := p.MonteCarlo(x, trials, true, mcSeed)
		if err != nil {
			return err
		}
		out[wi] = WNNLSRow{
			Workload:    names[wi],
			Default:     raw.Normalized,
			WNNLS:       cons.Normalized,
			Improvement: raw.Normalized / cons.Normalized,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table1Row summarizes one of the classical mechanisms encoded as a strategy
// matrix (Table 1): its output-range size and a validation check.
type Table1Row struct {
	Mechanism string
	Inputs    int
	Outputs   int
	// LDPValid reports whether the strategy passes the Proposition 2.6 check
	// at the declared ε.
	LDPValid bool
}

// Table1 reproduces Table 1 as an executable artifact: each mechanism is
// built as a strategy matrix and validated against the LDP constraints.
func Table1(n int, eps float64) ([]Table1Row, error) {
	var rows []Table1Row
	add := func(name string, s *strategy.Strategy) {
		rows = append(rows, Table1Row{
			Mechanism: name,
			Inputs:    s.Domain(),
			Outputs:   s.Outputs(),
			LDPValid:  s.Validate(1e-9) == nil,
		})
	}
	add("Randomized Response", baselines.RandomizedResponse(n, eps).Strategy())
	add("Hadamard", baselines.HadamardResponse(n, eps).Strategy())
	rp, err := baselines.RAPPOR(n, eps)
	if err != nil {
		return nil, err
	}
	add("RAPPOR", rp.Strategy())
	ss, err := baselines.SubsetSelection(n, eps, 0)
	if err != nil {
		return nil, err
	}
	add("Subset Selection", ss.Strategy())
	return rows, nil
}

// ImprovementSummary computes the paper's headline metric from Figure 1
// sweeps: for each (workload, ε) point, the ratio of the best competitor's
// sample complexity to the optimized mechanism's. The paper reports ratios
// between 1.0 and 14.6.
type ImprovementSummary struct {
	MinRatio, MaxRatio float64
	// Losses counts configurations where Optimized was worse than the best
	// competitor by more than 5% (the paper reports zero).
	Losses int
}

// Improvements summarizes Figure 1 sweeps.
func Improvements(sweeps []Sweep) ImprovementSummary {
	sum := ImprovementSummary{MinRatio: math.Inf(1), MaxRatio: 0}
	for _, sw := range sweeps {
		var opt []float64
		best := make([]float64, len(sw.Points))
		for i := range best {
			best[i] = math.Inf(1)
		}
		for _, se := range sw.Series {
			if se.Mechanism == "Optimized" {
				opt = se.Values
				continue
			}
			for i, v := range se.Values {
				if v < best[i] {
					best[i] = v
				}
			}
		}
		for i := range sw.Points {
			if opt == nil || math.IsInf(opt[i], 1) || math.IsInf(best[i], 1) {
				continue
			}
			r := best[i] / opt[i]
			if r < sum.MinRatio {
				sum.MinRatio = r
			}
			if r > sum.MaxRatio {
				sum.MaxRatio = r
			}
			if r < 1/1.05 {
				sum.Losses++
			}
		}
	}
	return sum
}

// --- text rendering -------------------------------------------------------

// WriteSweeps renders Figure 1/2 sweeps as aligned text tables.
func WriteSweeps(w io.Writer, sweeps []Sweep, xLabel string) {
	for _, sw := range sweeps {
		fmt.Fprintf(w, "\nWorkload=%s (samples to reach normalized variance α)\n", sw.Workload)
		fmt.Fprintf(w, "%-24s", xLabel)
		for _, p := range sw.Points {
			fmt.Fprintf(w, "%12g", p)
		}
		fmt.Fprintln(w)
		for _, se := range sw.Series {
			fmt.Fprintf(w, "%-24s", se.Mechanism)
			for _, v := range se.Values {
				if math.IsInf(v, 1) {
					fmt.Fprintf(w, "%12s", "—")
				} else {
					fmt.Fprintf(w, "%12.3g", v)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteDatasets renders Figure 3a rows.
func WriteDatasets(w io.Writer, rows []DatasetRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-24s", "Mechanism \\ Dataset")
	for _, r := range rows {
		fmt.Fprintf(w, "%14s", r.Dataset)
	}
	fmt.Fprintln(w)
	for _, mn := range MechanismNames {
		fmt.Fprintf(w, "%-24s", mn)
		for _, r := range rows {
			v := r.Values[mn]
			if math.IsInf(v, 1) {
				fmt.Fprintf(w, "%14s", "—")
			} else {
				fmt.Fprintf(w, "%14.3g", v)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteInit renders Figure 3b points.
func WriteInit(w io.Writer, pts []InitPoint) {
	fmt.Fprintf(w, "\n%-18s %8s %10s %10s %10s\n", "Workload", "m/n", "min", "median", "max")
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s %8d %10.3f %10.3f %10.3f\n", p.Workload, p.MFactor, p.Min, p.Median, p.Max)
	}
}

// WriteScalability renders Figure 3c points.
func WriteScalability(w io.Writer, pts []ScalePoint) {
	fmt.Fprintf(w, "\n%-10s %16s\n", "Domain", "per-iteration")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10d %16s\n", p.Domain, p.PerIteration)
	}
}

// WriteWNNLS renders Figure 4 rows.
func WriteWNNLS(w io.Writer, rows []WNNLSRow) {
	fmt.Fprintf(w, "\n%-18s %14s %14s %12s\n", "Workload", "Default", "WNNLS", "improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %14.4g %14.4g %11.2fx\n", r.Workload, r.Default, r.WNNLS, r.Improvement)
	}
}

// WriteTable1 renders Table 1 rows.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "\n%-22s %8s %8s %8s\n", "Mechanism", "inputs", "outputs", "ε-LDP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %8d %8v\n", r.Mechanism, r.Inputs, r.Outputs, r.LDPValid)
	}
}

func minMedianMax(vs []float64) (mn, md, mx float64) {
	sorted := linalg.CloneVec(vs)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}
