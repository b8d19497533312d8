package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	ldp "repro"
)

// metricDef names one metric and its unit. endToEnd and perLayer are the
// lists BENCHMARK.json publishes; bench_test.go holds the two in step.
type metricDef struct{ name, unit string }

// Every workload reports every end-to-end metric; what "op", "side" and
// "work" mean on each workload is in that workload's describe() and in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// value is one reported number with how it was obtained.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Stat    string  `json:"stat,omitempty"`    // p50, p99, max, median-of-3, count, ...
	Samples int     `json:"samples,omitempty"` // observations behind a timing
	Means   string  `json:"means,omitempty"`   // what the generic name measures on this workload
}

// check is one correctness assertion the run made.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// share is one row of the traced run's attribution table: an isolated layer
// timing multiplied by how often the workload's operation calls it, against
// the measured span of that operation.
type share struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms_per_op"`
	Share float64 `json:"share"`
}

type result struct {
	Workload       string           `json:"workload"`
	Why            string           `json:"why"`
	Trace          bool             `json:"trace"`
	Correct        bool             `json:"correct"`
	Attempted      int              `json:"attempted"`
	Failed         int              `json:"failed"`
	FailedOpsShare float64          `json:"failed_ops_share"`
	Checks         []check          `json:"checks"`
	Metrics        map[string]value `json:"metrics"`
	Shares         []share          `json:"shares,omitempty"`
	SpanOf         string           `json:"shares_of_span,omitempty"`
	Spans          []spanStat       `json:"span_stats,omitempty"`
	WallS          float64          `json:"wall_s"`
	Env            env              `json:"env"`
}

type resultFile struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

// env is the fingerprint recorded in every result file.
type env struct {
	Commit     string  `json:"commit"`
	Version    string  `json:"version"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	DataDir    string  `json:"data_dir"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	MeasureS   float64 `json:"measure_s"`
	Setups     int     `json:"setups"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func fingerprint(cfg config) env {
	b := ldp.BuildInfo()
	e := env{
		Commit: b.Revision, Version: b.Version, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		DataDir: cfg.dataDir, DataDirFS: fsType(cfg.dataDir),
		Seed: cfg.seed, WarmupS: cfg.warmup.Seconds(), MeasureS: cfg.measure.Seconds(),
		Setups: cfg.setups, Smoke: cfg.smoke,
	}
	if e.Commit == "" {
		e.Commit = "unknown (not built inside a git checkout)"
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("magic 0x%X", uint32(st.Type))
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// lastLine is the contract line: exactly correct, attempted, failed, metrics.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range r.published() {
		v := r.Metrics[d.name]
		out.Metrics[d.name] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(data)
}

// published is the metric list this run's mode owes the contract.
func (r *result) published() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable ledger: every metric by name with its unit,
// statistic and sample count, then the checks.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d · %.0f s window · GOMAXPROCS %d on %d CPUs (%s) · data dir on %s\n",
		r.Workload, mode, r.Env.Seed, r.Env.MeasureS, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.CPUModel, r.Env.DataDirFS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	pub := map[string]bool{}
	for _, d := range r.published() {
		pub[d.name] = true
	}
	for _, published := range []bool{true, false} {
		for _, name := range names {
			v := r.Metrics[name]
			if pub[name] != published || (r.Trace && v.Value == 0 && v.Means == "") {
				continue // a layer this workload bypasses
			}
			n := ""
			if v.Samples > 0 {
				n = fmt.Sprintf("n=%d", v.Samples)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s %-12s %-9s %s\n", name, v.Value, v.Unit, v.Stat, n, v.Means)
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-6s %d failed of %d attempted\n", "failed_ops_share", r.FailedOpsShare, "ratio", r.Failed, r.Attempted)
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "  where one %s went (isolated layer timings × calls per op):\n", r.SpanOf)
		for _, s := range r.Shares {
			fmt.Fprintf(w, "    %-32s %10.4f ms %6.1f %%\n", s.Layer, s.Ms, 100*s.Share)
		}
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  wall %.1f s\n", r.WallS)
}

// window is what one measured (or warm-up) pass of a workload produced.
type window struct {
	elapsed   time.Duration
	op, side  samples // latencies of the primary and the secondary operation, ms
	work      float64 // work units completed (see describe)
	workS     float64 // seconds the work took, when not the whole window
	attempted int
	failed    int
	problems  []string           // correctness violations seen while running
	detail    map[string]float64 // workload-specific counts the layer pass needs
}

func (w *window) problemf(format string, args ...any) {
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one of the four traffic mixes.
type workload interface {
	// why is BENCHMARK.json's one-line reason for the workload.
	why() string
	// describe says what op_p50_ms, op_tail_ms, side_p50_ms and work_per_s
	// measure here, and which tail statistic op_tail_ms is ("p99", "p90" or
	// "max").
	describe() (means map[string]string, tail string)
	// setup builds everything the first operation needs; teardown releases
	// it. The runner times setup and repeats the pair.
	setup() error
	teardown()
	// warmup lets caches fill and lazy set-up finish before timing. Its
	// samples are discarded; its attempted and failed operations still count.
	warmup() (*window, error)
	// run drives the workload for d. tr is nil on an untraced pass.
	run(d time.Duration, tr *tracer) (*window, error)
	// verify checks the system's final state once the last run has ended.
	verify() []check
	// layers times the calls into each layer this workload exercises, in
	// isolation on the workload's own inputs, and attributes the span named
	// spanOf to them. base and traced are the two half-windows.
	layers(base, traced *window, stats []spanStat) (metrics map[string]value, shares []share, spanOf string, err error)
}

func runWorkload(cfg config) (*result, error) {
	start := time.Now()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Why: w.why(), Trace: cfg.trace, Metrics: map[string]value{}, Env: fingerprint(cfg)}

	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	warm, err := w.warmup()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	probeBudget = 150 * time.Millisecond
	if cfg.smoke {
		probeBudget = 2 * time.Millisecond
	}

	windows := []*window{warm}
	if !cfg.trace {
		win, err := w.run(cfg.measure, nil)
		if err != nil {
			return nil, err
		}
		windows = append(windows, win)
		res.Checks = w.verify()
		if err := res.endToEnd(w, win, setups); err != nil {
			return nil, err
		}
	} else {
		// Half the window untraced, half traced, on the same warmed system:
		// the difference between the two is the tracing overhead.
		base, err := w.run(cfg.measure/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := w.run(cfg.measure/2, tr)
		if err != nil {
			return nil, err
		}
		windows = append(windows, base, traced)
		if err := tr.write(fmt.Sprintf("%s/trace_%s.json", cfg.outDir, cfg.workload)); err != nil {
			return nil, err
		}
		// Layer probes may push more traffic through the live system, so the
		// final state is verified after them.
		if err := res.perLayer(w, base, traced, tr.stats()); err != nil {
			return nil, err
		}
		res.Checks = w.verify()
	}
	for _, win := range windows {
		res.Attempted += win.attempted
		res.Failed += win.failed
		for _, p := range win.problems {
			res.Checks = append(res.Checks, check{Name: "during run", OK: false, Detail: p})
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res.FailedOpsShare = float64(res.Failed) / float64(res.Attempted)
	res.Checks = append(res.Checks, check{Name: "no failed or refused operation", OK: res.Failed == 0,
		Detail: fmt.Sprintf("%d of %d", res.Failed, res.Attempted)})
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// endToEnd fills the six end-to-end metrics from an untraced window.
func (r *result) endToEnd(w workload, win *window, setups []float64) error {
	means, tail := w.describe()
	if r.Env.Smoke {
		tail = "max" // a smoke window is too short to owe any percentile its ten samples
	}
	p50, err := win.op.quantile(0.5)
	if err != nil {
		return fmt.Errorf("op_p50_ms: %w", err)
	}
	var tailV float64
	switch tail {
	case "max":
		tailV = win.op.max()
	case "p90":
		tailV, err = win.op.quantile(0.90)
	case "p99":
		tailV, err = win.op.quantile(0.99)
	default:
		err = fmt.Errorf("unknown tail statistic %q", tail)
	}
	if err != nil {
		return fmt.Errorf("op_tail_ms: %w", err)
	}
	side, err := win.side.quantile(0.5)
	if err != nil {
		return fmt.Errorf("side_p50_ms: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.Metrics["setup_s"] = value{Value: median(setups), Unit: "s", Stat: fmt.Sprintf("median-of-%d", len(setups)), Means: means["setup_s"]}
	r.Metrics["op_p50_ms"] = value{Value: p50, Unit: "ms", Stat: "p50", Samples: win.op.n(), Means: means["op_p50_ms"]}
	r.Metrics["op_tail_ms"] = value{Value: tailV, Unit: "ms", Stat: tail, Samples: win.op.n(), Means: means["op_tail_ms"]}
	r.Metrics["side_p50_ms"] = value{Value: side, Unit: "ms", Stat: "p50", Samples: win.side.n(), Means: means["side_p50_ms"]}
	workS := win.workS
	if workS == 0 {
		workS = win.elapsed.Seconds()
	}
	r.Metrics["work_per_s"] = value{Value: win.work / workS, Unit: "1/s", Stat: "mean", Means: means["work_per_s"]}
	r.Metrics["peak_rss_mb"] = value{Value: rss, Unit: "MB", Stat: "VmHWM", Means: "peak resident set of the bench process (servers run in-process)"}
	return nil
}
