package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ldp "repro"
	"repro/internal/transport"
)

// perLayer is the traced run's metric list: <layer>.<metric>, layers being
// this repository's modules. Each is a median of timed calls into the layer's
// public functions on the workload's own inputs, or an exact count. Every
// workload reports every name; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	// optimize_cold
	{"core.sc_ratio", "ratio"},
	{"core.pilot_share", "ratio"},
	{"core.iter_ms", "ms"},
	{"core.iters", "count"},
	{"core.objective_grad_ms", "ms"},
	{"core.allocs_per_job", "count"},
	{"core.bytes_per_job", "B"},
	{"opt.project_ms", "ms"},
	{"linalg.mul_ms", "ms"},
	{"linalg.mulatb_ms", "ms"},
	{"linalg.cholesky_solve_ms", "ms"},
	{"workload.gram_ms", "ms"},
	// set-up of the serving workloads
	{"pool.strategy_cold_ms", "ms"},
	{"pool.strategy_warm_ms", "ms"},
	{"pool.strategy_restart_ms", "ms"},
	{"strategy.aggregator_build_ms", "ms"},
	// ingest
	{"transport.encode_us_per_batch", "us"},
	{"transport.decode_us_per_batch", "us"},
	{"transport.bytes_per_report", "B"},
	{"transport.shard_post_us", "us"},
	{"transport.http_overhead_us", "us"},
	{"freqoracle.absorb_ns_per_report", "ns"},
	{"freqoracle.check_ns_per_report", "ns"},
	{"strategy.absorb_ns_per_report", "ns"},
	{"collector.ingest_us_per_batch", "us"},
	{"durable.append_us_per_batch", "us"},
	{"durable.wal_bytes_per_report", "B"},
	{"durable.group_commits_per_append", "ratio"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.checkpoints", "count"},
	{"durable.recover_ms", "ms"},
	{"durable.recover_replay_ms", "ms"},
	{"durable.recover_allocs", "count"},
	{"durable.recover_bytes", "B"},
	{"durable.fsync_commit_ms", "ms"},
	{"history.snapat_ms", "ms"},
	{"history.snapat_allocs", "count"},
	{"fleet.forward_overhead_us", "us"},
	{"fleet.snap_ms", "ms"},
	{"fleet.forward_retries", "count"},
	{"fleet.breaker_opens", "count"},
	// reads
	{"collector.snap_hit_us", "us"},
	{"collector.snap_miss_us", "us"},
	{"collector.snap_hit_ratio", "ratio"},
	{"estimator.build_ms", "ms"},
	{"estimator.reconstruct_ms", "ms"},
	{"estimator.answers_ms", "ms"},
	{"estimator.variance_stream_ms", "ms"},
	{"pool.answer_batch_miss_ms", "ms"},
	{"pool.answer_batch_hit_ms", "ms"},
	{"pool.estimator_hit_ratio", "ratio"},
	{"pool.shared_row_hits", "count"},
	{"transport.query_encode_ms", "ms"},
	{"transport.query_decode_ms", "ms"},
	{"transport.query_bytes", "B"},
	{"transport.query_first_row_ms", "ms"},
	// generator and instrument health
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// probeBudget bounds one isolated layer timing: enough calls for a stable
// median, few enough that fifty probes fit beside the traced window.
const (
	probeMinCalls = 5
	probeMaxCalls = 2000
)

var probeBudget time.Duration // set by runWorkload: 150 ms, a sliver under -smoke

// probe times repeated calls of fn and returns the median in milliseconds.
func probe(fn func()) float64 {
	fn() // first call pays lazy initialization; not timed
	var s samples
	start := time.Now()
	for s.n() < probeMinCalls || (time.Since(start) < probeBudget && s.n() < probeMaxCalls) {
		t0 := time.Now()
		fn()
		s.add(time.Since(t0).Seconds() * 1e3)
	}
	m, _ := s.quantile(0.5)
	return m
}

// allocsOf reports the heap allocations and bytes one call of fn makes.
func allocsOf(fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// finishShares turns per-op layer times into shares of the measured span and
// appends the unattributed remainder.
func finishShares(rows []share, spanMs float64) []share {
	if spanMs <= 0 {
		return nil
	}
	sum := 0.0
	for i := range rows {
		rows[i].Share = rows[i].Ms / spanMs
		sum += rows[i].Ms
	}
	return append(rows, share{Layer: "unattributed", Ms: spanMs - sum, Share: 1 - sum/spanMs})
}

// perLayer fills the traced run's metrics: the workload's isolated layer
// timings, then the instrument-health figures every workload shares.
func (r *result) perLayer(w workload, base, traced *window, stats []spanStat) error {
	metrics, shares, spanOf, err := w.layers(base, traced, stats)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	b, err := base.op.quantile(0.5)
	if err != nil {
		return err
	}
	t, err := traced.op.quantile(0.5)
	if err != nil {
		return err
	}
	metrics["trace.overhead_share"] = value{Value: (t - b) / b, Stat: "p50 vs p50",
		Samples: traced.op.n(), Means: fmt.Sprintf("(traced − untraced) ÷ untraced op_p50_ms: %.4f vs %.4f ms", t, b)}
	if len(shares) > 0 {
		metrics["trace.unattributed_share"] = value{Value: shares[len(shares)-1].Share, Unit: "ratio",
			Means: "1 − Σ isolated layer time ÷ the " + spanOf + " span"}
	}
	for _, d := range perLayer {
		v := metrics[d.name]
		v.Unit = d.unit // the published unit; workloads leave it unset
		r.Metrics[d.name] = v
		delete(metrics, d.name)
	}
	for name := range metrics {
		return fmt.Errorf("layer metric %q is not in the published list", name)
	}
	r.Shares, r.SpanOf, r.Spans = shares, spanOf, stats
	return nil
}

// probeFrames times the report-frame codec on one of the workload's batches
// and publishes the transport.* codec metrics.
func probeFrames(m map[string]value, batch []ldp.Report) (encMs, decMs float64) {
	var frame bytes.Buffer
	encMs = probe(func() {
		frame.Reset()
		_ = transport.EncodeReportsChunked(&frame, batch)
	})
	wire := append([]byte(nil), frame.Bytes()...)
	decMs = probe(func() { _, _ = transport.DecodeReports(bytes.NewReader(wire)) })
	m["transport.encode_us_per_batch"] = value{Value: encMs * 1e3, Stat: "p50", Means: fmt.Sprintf("EncodeReportsChunked, one %d-report batch", len(batch))}
	m["transport.decode_us_per_batch"] = value{Value: decMs * 1e3, Stat: "p50", Means: "DecodeReports of the same frame"}
	m["transport.bytes_per_report"] = value{Value: float64(len(wire)) / float64(len(batch)), Stat: "count"}
	return encMs, decMs
}

// probeSnapMiss times Collector.Snap right after an ingest, when the cached
// merge is stale, on a memory-only collector; it returns the median in µs.
func probeSnapMiss(m map[string]value, col *ldp.Collector, batches [][]ldp.Report) (float64, error) {
	var miss samples
	for i := 0; i < 200; i++ {
		if err := col.IngestBatch(batches[i%len(batches)]); err != nil {
			return 0, err
		}
		t := time.Now()
		col.Snap()
		miss.add(time.Since(t).Seconds() * 1e6)
	}
	us, _ := miss.quantile(0.5)
	m["collector.snap_miss_us"] = value{Value: us, Stat: "p50", Samples: miss.n(), Means: "Collector.Snap right after one ingest (re-merge)"}
	return us, nil
}

// ingestProbe is the ingest path measured in isolation on a workload's own
// batches: a memory-only collector, a durable one (buffered WAL, as served),
// a forced checkpoint, and — informational, device-dependent — an fsynced
// commit.
type ingestProbe struct {
	memoryMs, durableMs   float64 // one IngestBatchKeyed, median
	checkpointMs, fsyncMs float64
	walBytesPerReport     float64
}

func probeIngest(cfg config, agg ldp.Aggregator, w ldp.Workload, batches [][]ldp.Report) (*ingestProbe, error) {
	p := &ingestProbe{}
	ingest := func(col *ldp.Collector, tag string) (ms float64, reports int, err error) {
		i := 0
		ms = probe(func() {
			if e := col.IngestBatchKeyed(batches[i%len(batches)], fmt.Sprintf("probe-%s-%d", tag, i)); e != nil {
				err = e
			}
			reports += len(batches[i%len(batches)])
			i++
		})
		return ms, reports, err
	}
	mem, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		return nil, err
	}
	if p.memoryMs, _, err = ingest(mem, "mem"); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(cfg.dataDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Automatic checkpoints are off so the WAL byte lag is every byte written.
	dur, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(filepath.Join(dir, "buffered"), ldp.CheckpointEvery(0)))
	if err != nil {
		return nil, err
	}
	defer dur.Close()
	var reports int
	if p.durableMs, reports, err = ingest(dur, "dur"); err != nil {
		return nil, err
	}
	if err := dur.Sync(); err != nil {
		return nil, err
	}
	if st, ok := dur.Durability(); ok && reports > 0 {
		p.walBytesPerReport = float64(st.WALByteLag) / float64(reports)
	}
	p.checkpointMs = probe(func() {
		if e := dur.Checkpoint(); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}

	syn, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(filepath.Join(dir, "fsync"), ldp.FsyncEachCommit(true)))
	if err != nil {
		return nil, err
	}
	defer syn.Close()
	if p.fsyncMs, _, err = ingest(syn, "fsync"); err != nil {
		return nil, err
	}
	return p, nil
}

// fill publishes the probe under the layer names; perBatch converts the
// memory-only timing's mechanism share per report.
func (p *ingestProbe) fill(m map[string]value, perBatch float64) {
	m["collector.ingest_us_per_batch"] = value{Value: p.memoryMs * 1e3, Stat: "p50",
		Means: fmt.Sprintf("Collector.IngestBatchKeyed, memory-only, %.0f-report batches", perBatch)}
	m["durable.append_us_per_batch"] = value{Value: (p.durableMs - p.memoryMs) * 1e3, Stat: "p50 − p50",
		Means: "durable (buffered WAL) minus memory-only IngestBatchKeyed on the same batches"}
	m["durable.wal_bytes_per_report"] = value{Value: p.walBytesPerReport, Stat: "count", Means: "WAL byte lag ÷ reports appended"}
	m["durable.checkpoint_ms"] = value{Value: p.checkpointMs, Stat: "p50", Means: "Collector.Checkpoint()"}
	m["durable.fsync_commit_ms"] = value{Value: p.fsyncMs, Stat: "p50",
		Means: "informational: IngestBatchKeyed with FsyncEachCommit(true); depends on the device, not the code"}
}
