package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricSpec names one reported metric and its unit. The lists below
// are the metrics BENCHMARK.json declares: every run prints
// every end-to-end metric (untraced) or every per-layer metric
// (traced), whatever the workload; TestMetricsMatchBenchmarkJSON keeps
// the two in step.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"spectra_per_s", "1/s"},
	{"fix_latency_p50_ms", "ms"},
	{"cpu_ms_per_round", "ms"},
	{"heap_peak_mib", "MiB"},
	{"loc_error_p50_m", "m"},
	{"fix_coverage", "share"},
}

var perLayerMetrics = []metricSpec{
	{"llrp.decode_us_p50", "us"},
	{"llrp.frame_us_p50", "us"},
	{"llrp.bytes_per_report", "count"},
	{"fleet.ingest_us_p50", "us"},
	{"fleet.ingest_us_p99", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.read_us_per_record", "us"},
	{"feeder.busy_share", "share"},
	{"pipeline.single_worker_spectra_per_s", "1/s"},
	{"pipeline.scaling_efficiency", "ratio"},
	{"pipeline.compute_us_p50", "us"},
	{"pipeline.compute_us_p99", "us"},
	{"pipeline.queue_wait_us_p50", "us"},
	{"pipeline.queue_wait_us_p99", "us"},
	{"pipeline.assemble_us_p50", "us"},
	{"pipeline.fuse_us_p50", "us"},
	{"pipeline.fuse_us_p99", "us"},
	{"pipeline.queue_depth_max", "count"},
	{"pipeline.pending_seqs_max", "count"},
	{"pipeline.sequences_evicted", "count"},
	{"pipeline.late_reports", "count"},
	{"pipeline.snapshots_dropped", "count"},
	{"pipeline.spectra_failed", "count"},
	{"pipeline.alloc_bytes_per_report", "B"},
	{"pmusic.spectrum_us_p50", "us"},
	{"serve.publish_to_watch_us_p50", "us"},
	{"serve.publish_to_watch_us_p99", "us"},
	{"serve.resyncs", "count"},
	{"cluster.relay_us_p50", "us"},
	{"cluster.relay_us_p99", "us"},
	{"cluster.scrape_ms_p50", "ms"},
	{"go.gc_cpu_share", "share"},
	{"go.sched_latency_p99_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.rounds_sent", "count"},
	{"ledger.unexplained_share", "share"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured: operations, and metric values
// by name (both end-to-end and, in traced runs, per-layer).
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// problems lists correctness failures beyond failed operations
	// (ingest errors, lost deliveries); any makes the run incorrect.
	problems []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// emit prints the result line for the metric list the run reports.
// A metric the workload failed to measure is an error, not a zero.
func emit(o *outcome, specs []metricSpec) error {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.name)
			continue
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("unmeasured metrics: %s", strings.Join(missing, ", "))
	}
	for _, p := range o.problems {
		fmt.Println("problem:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFingerprint identifies the measuring host so results are only
// compared like with like.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
