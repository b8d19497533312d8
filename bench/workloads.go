package main

import "fmt"

// The four workloads, in the order a full run executes them. Each layer
// likely to be optimised does most of the work in one and little in another.
var workloads = []struct {
	name string
	make func(config) workload
}{
	{"optimize_cold", func(c config) workload { return newOptimizeCold(c) }},
	{"fleet_ingest_oue", func(c config) workload { return newFleetIngest(c) }},
	{"embedded_lifecycle", func(c config) workload { return newLifecycle(c) }},
	{"query_mixed", func(c config) workload { return newQueryMixed(c) }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func newWorkload(cfg config) (workload, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.make(cfg), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q, have %v", cfg.workload, workloadNames())
}
