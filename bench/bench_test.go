package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var man manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMatchesHarness holds BENCHMARK.json and the harness's own
// metric and workload tables in step, and the manifest inside its limits.
func TestManifestMatchesHarness(t *testing.T) {
	man := loadManifest(t)
	if got, want := len(man.Workloads), len(workloads); got != want {
		t.Fatalf("manifest has %d workloads, harness %d", got, want)
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, harness %q", i, w.Name, workloads[i].name)
		}
		if why := workloads[i].make(config{}).why(); w.Why != why {
			t.Errorf("workload %s: manifest why %q, harness %q", w.Name, w.Why, why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s: manifest has %s [%s], harness %s [%s]", kind, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s %q [%q]: outside the allowed characters", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("%s %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d + %d metrics, harness %d + %d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range man.EndToEnd {
		check("end_to_end", m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range man.PerLayer {
		check("per_layer", m.Name, m.Unit, perLayer[i])
	}
	if len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 || man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Error("manifest outside the contract's count limits")
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v", man.Paths)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 7, measure: 400 * time.Millisecond, warmup: 50 * time.Millisecond,
		setups: 1, trace: trace, smoke: true, dataDir: dir, outDir: dir}
}

// TestSmoke runs every workload at its tiny sizing, untraced and traced, and
// asserts that the contract line carries every metric BENCHMARK.json names
// exactly once with its unit, and that the correctness checks pass.
func TestSmoke(t *testing.T) {
	man := loadManifest(t)
	for _, w := range man.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				var buf bytes.Buffer
				res.print(&buf)
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, buf.String())
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(res.lastLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s trace=%v: contract line %q: %v", w.Name, trace, res.lastLine(), err)
			}
			want := map[string]string{}
			if trace {
				for _, m := range man.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range man.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the contract line, manifest names %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, name, got.Unit, unit)
				}
				if !trace && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, *got.Value)
				}
			}
			if trace && (len(res.Shares) == 0 || len(res.Spans) == 0) {
				t.Errorf("%s: traced run produced no share table or span statistics", w.Name)
			}
		}
	}
}

// TestInjected503IsAFailedOp: a refusal by the served tier must show up in
// failed (and so in failed_ops_share), and fail the run.
func TestInjected503IsAFailedOp(t *testing.T) {
	for _, name := range []string{"fleet_ingest_oue", "query_mixed"} {
		cfg := smokeConfig(t, name, false)
		cfg.inject503 = 3
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 3 || res.FailedOpsShare <= 0 || res.Correct {
			t.Errorf("%s: 3 injected 503s gave failed=%d share=%v correct=%v", name, res.Failed, res.FailedOpsShare, res.Correct)
		}
	}
}

func TestQuantileDiscipline(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if m, err := s.quantile(0.5); err != nil || m != 50 {
		t.Errorf("median = %v, %v", m, err)
	}
	if p, err := s.quantile(0.90); err != nil || p != 90 || p > s.max() {
		t.Errorf("p90 over 100 samples = %v, %v (10 beyond it: allowed)", p, err)
	}
	if _, err := s.quantile(0.99); err == nil {
		t.Error("p99 over 100 samples has 1 sample beyond it and must be refused")
	}
	var empty samples
	if _, err := empty.quantile(0.5); err == nil {
		t.Error("a quantile of nothing must be refused")
	}
}

func TestCompare(t *testing.T) {
	man := loadManifest(t)
	dir := t.TempDir()
	file := func(name string, scale float64) string {
		rf := resultFile{}
		for _, w := range man.Workloads {
			r := &result{Workload: w.Name, Metrics: map[string]value{}}
			for _, m := range man.EndToEnd {
				r.Metrics[m.Name] = value{Value: 10 * scale, Unit: m.Unit}
			}
			rf.Workloads = append(rf.Workloads, r)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, far := file("a.json", 1), file("same.json", 1.01), file("far.json", 1.5)
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if ok, err := compareFiles(&out, manifestPath, a, same); err != nil || !ok {
		t.Errorf("1 %% apart: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(man.Workloads)*len(man.EndToEnd) {
		t.Errorf("want one row per (metric, workload) pair plus a header, got %d lines", rows)
	}
	out.Reset()
	if ok, err := compareFiles(&out, manifestPath, a, far); err != nil || ok {
		t.Errorf("50 %% apart: ok=%v err=%v", ok, err)
	}
	if n := strings.Count(out.String(), "outside its bound:"); n != len(man.Workloads)*len(man.EndToEnd) {
		t.Errorf("every pair should be listed as an offender, got %d", n)
	}
}
