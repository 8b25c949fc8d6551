// Command dwbench is the D-Watch benchmark. It drives the real system
// from outside, in one process, through public entry points only —
// replay.Run, fleet.Ingest, an LLRP connection, a cluster gateway —
// with inputs generated from a seed, checks every delivered fix
// against a 1-worker, 1-shard reference, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash dwbench/run.sh --workload replay|live|fleet-load --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// work is a scratch directory inside the checkout for the run's
	// WALs; removed when the run ends.
	work string
}

var workloads = map[string]func(config) (*outcome, error){
	"replay":     runReplay,
	"live":       runLive,
	"fleet-load": runFleetLoad,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dwbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: replay, live or fleet-load")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics and the ledger")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	cfg := config{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		work:    filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	header, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "traced": cfg.traced,
		"seconds": *seconds, "host": hostFingerprint(),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(header))
	o, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if o.attempted < 1 {
		return fmt.Errorf("%s: no operations attempted", cfg.workload)
	}
	specs := endToEndMetrics
	if cfg.traced {
		specs = perLayerMetrics
	}
	return emit(o, specs)
}
