package main

import (
	"fmt"
	"io"
	"math"
)

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever runs it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareFiles checks two result files of end-to-end runs against each
// other: for every (end-to-end metric, workload) pair both files hold,
// |A − B| ≤ bound × A with the manifest's bound. A file may hold several runs
// of a workload; their median stands for the file. It prints one row per pair
// and reports whether every pair agreed.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return false, err
	}
	a, err := mediansOf(pathA)
	if err != nil {
		return false, err
	}
	b, err := mediansOf(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "|Δ|/A", "bound")
	var offenders []string
	pairs := 0
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, okA := a[wl.Name][m.Name]
			vb, okB := b[wl.Name][m.Name]
			if !okA || !okB {
				continue
			}
			pairs++
			delta := math.Abs(va-vb) / math.Abs(va)
			verdict := ""
			if !(delta <= m.Bound) { // a NaN delta offends too
				verdict = "  OUTSIDE"
				offenders = append(offenders, fmt.Sprintf("%s on %s: %.4g vs %.4g %s (%.1f %% apart, bound %.0f %%)",
					m.Name, wl.Name, va, vb, m.Unit, 100*delta, 100*m.Bound))
			}
			fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", wl.Name, m.Name, va, vb, 100*delta, 100*m.Bound, verdict)
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s share no (end-to-end metric, workload) pair", pathA, pathB)
	}
	for _, o := range offenders {
		fmt.Fprintln(w, "outside its bound:", o)
	}
	return len(offenders) == 0, nil
}

// mediansOf reads a result file into workload → metric → median over the
// file's runs of that workload.
func mediansOf(path string) (map[string]map[string]float64, error) {
	var rf resultFile
	if err := readJSON(path, &rf); err != nil {
		return nil, err
	}
	runs := map[string]map[string][]float64{}
	for _, r := range rf.Workloads {
		if r.Trace {
			return nil, fmt.Errorf("%s holds a traced run; end-to-end metrics come from untraced runs only", path)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]float64{}
	for wl, ms := range runs {
		out[wl] = map[string]float64{}
		for name, vs := range ms {
			out[wl][name] = median(vs)
		}
	}
	return out, nil
}
