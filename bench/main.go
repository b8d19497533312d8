// Command bench is the repository's performance ledger: one command, four
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. See README.md in this directory for the glossary.
//
//	go run ./bench                          all four workloads, end to end
//	go run ./bench --workload query_mixed   one workload
//	go run ./bench --trace 1                per-layer metrics + span files
//	go run ./bench -compare A.json B.json   check two result files against the bounds
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics (BENCHMARK.json names what metrics holds).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// config is one invocation's settings. Everything random derives from seed.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	warmup   time.Duration
	setups   int // how many times set-up is repeated; setup_s is the median
	trace    bool
	smoke    bool
	dataDir  string // parent of the durable data directories
	outDir   string // result and trace files

	// inject503 makes the outermost served tier refuse that many requests;
	// only the smoke test sets it.
	inject503 int
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames())+" (default: all, one child process each)")
		seed         = flag.Int64("seed", 1, "drives every random choice: items, randomizer noise, optimizer seeds")
		seconds      = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		smoke        = flag.Bool("smoke", false, "tiny sizing for tests (numbers are meaningless)")
		dataDir      = flag.String("data-dir", "", "parent for durable data directories (default <out-dir>/data)")
		outDir       = flag.String("out-dir", filepath.Join("bench", "out"), "where result and trace files go")
		compare      = flag.Bool("compare", false, "compare two result files against the bounds in ./BENCHMARK.json: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	cfg := config{
		workload: *workloadName, seed: *seed, trace: *trace == 1, smoke: *smoke,
		measure: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Second, setups: 3,
		dataDir: *dataDir, outDir: *outDir,
	}
	if cfg.dataDir == "" {
		cfg.dataDir = filepath.Join(cfg.outDir, "data")
	}
	if cfg.smoke {
		cfg.warmup, cfg.setups = 100*time.Millisecond, 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if err := writeJSON(filepath.Join(cfg.outDir, resultFileName(cfg, cfg.workload)), resultFile{Env: res.Env, Workloads: []*result{res}}); err != nil {
		fatal(err)
	}
	fmt.Println(res.lastLine())
	if !res.Correct {
		os.Exit(1)
	}
}

func resultFileName(cfg config, workload string) string {
	kind := "result"
	if cfg.trace {
		kind = "layers"
	}
	if workload == "" {
		return kind + ".json"
	}
	return kind + "_" + workload + ".json"
}

// runAll runs every workload in a child process of its own, so peak_rss_mb
// and set-up costs of one cannot leak into the next, and gathers the
// children's result files into one.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultFile{}
	correct := true
	for _, name := range workloadNames() {
		args := []string{
			"--workload", name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.measure.Seconds()),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
			"--out-dir", cfg.outDir, "--data-dir", cfg.dataDir,
		}
		if cfg.smoke {
			args = append(args, "--smoke")
		}
		childFile := filepath.Join(cfg.outDir, resultFileName(cfg, name))
		os.Remove(childFile) // a file left by an earlier run must not stand in for this one
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // Run waits for the child to exit
		var one resultFile
		if err := readJSON(childFile, &one); err != nil {
			if runErr != nil {
				return fmt.Errorf("workload %s: %w", name, runErr)
			}
			return err
		}
		all.Env = one.Env
		all.Workloads = append(all.Workloads, one.Workloads...)
		correct = correct && runErr == nil
	}
	path := filepath.Join(cfg.outDir, resultFileName(cfg, ""))
	if err := writeJSON(path, all); err != nil {
		return err
	}
	total := 0.0
	for _, w := range all.Workloads {
		total += w.WallS
	}
	fmt.Printf("wrote %s (%d workloads, %.1f s wall)\n", path, len(all.Workloads), total)
	if !correct {
		return fmt.Errorf("at least one workload failed its checks")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
