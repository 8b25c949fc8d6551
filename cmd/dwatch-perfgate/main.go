// dwatch-perfgate is the replay-driven performance regression gate:
// it replays the pinned corpus (make corpus) through a fresh pipeline
// per environment, repeats each run N times, and compares the best
// result against the committed baseline (BENCH_baseline.json) under
// the three-tier tolerance policy documented in DESIGN.md:
//
//	tier 1 — exactness: the fix-parity hash and fix count must match
//	         the baseline bit-for-bit. A parity mismatch on a different
//	         GOOS/GOARCH than the baseline's recording box downgrades
//	         to a warning (float rounding may legitimately differ);
//	         on the same arch it fails the gate.
//	tier 2 — bounded throughput/latency drift: max-of-N spectra/s may
//	         not drop below half the baseline; min-of-N p50/p99 stage
//	         latencies may not exceed double. Max-of-N and min-of-N
//	         (never means) because first-run noise on shared boxes is
//	         wild; the best of N repeats is the stable estimator.
//	tier 3 — informational: wall time and reports/s are printed for
//	         trend-eyeballing, never gated.
//
// Usage:
//
//	dwatch-perfgate                      # compare against BENCH_baseline.json
//	dwatch-perfgate -update              # (re)record the baseline on this box
//	dwatch-perfgate -repeats 5           # more repeats = tighter best-of
//
// Exit status: 0 clean, 1 regression (or missing baseline), 2 bad
// invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"dwatch/internal/fleet"
	"dwatch/internal/pipeline"
	"dwatch/internal/replay"
)

// EnvResult is one environment's best-of-N measurement (and the shape
// stored per env in the baseline file).
type EnvResult struct {
	FixParity     string  `json:"fix_parity"`
	Fixes         int     `json:"fixes"`
	Spectra       uint64  `json:"spectra"`
	SpectraPerSec float64 `json:"spectra_per_sec"` // max over repeats
	ReportsPerSec float64 `json:"reports_per_sec"` // max over repeats
	ComputeP50    float64 `json:"compute_p50_seconds"`
	ComputeP99    float64 `json:"compute_p99_seconds"`
	FuseP50       float64 `json:"fuse_p50_seconds"`
	FuseP99       float64 `json:"fuse_p99_seconds"`
	WallSeconds   float64 `json:"wall_seconds"` // min over repeats
}

// Baseline is the committed BENCH_baseline.json shape.
type Baseline struct {
	// Arch records the measuring box (GOOS/GOARCH): parity mismatches
	// across architectures warn instead of failing.
	Arch    string               `json:"arch"`
	Repeats int                  `json:"repeats"`
	Envs    map[string]EnvResult `json:"envs"`
}

// Tolerance is the tier-2 policy knob set.
type Tolerance struct {
	// MinThroughputRatio fails when current/baseline spectra/s drops
	// below it (default 0.5: half the baseline throughput).
	MinThroughputRatio float64
	// MaxLatencyRatio fails when current/baseline p50 or p99 exceeds
	// it (default 2: latency may double, not more).
	MaxLatencyRatio float64
}

// DefaultTolerance is the documented DESIGN.md policy.
var DefaultTolerance = Tolerance{MinThroughputRatio: 0.5, MaxLatencyRatio: 2}

func main() {
	corpus := flag.String("corpus", "testdata/corpus", "replay corpus root (one WAL directory per environment; make corpus)")
	fleetDir := flag.String("fleet", "testdata/fleet", "deployment config directory matching the corpus")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
	repeats := flag.Int("repeats", 3, "replay repeats per environment (best-of-N)")
	update := flag.Bool("update", false, "write the baseline from this run instead of gating")
	flag.Parse()
	if *repeats < 1 {
		fmt.Fprintln(os.Stderr, "dwatch-perfgate: -repeats must be >= 1")
		os.Exit(2)
	}

	current, err := measure(*corpus, *fleetDir, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwatch-perfgate:", err)
		os.Exit(2)
	}

	if *update {
		b := Baseline{Arch: runtime.GOOS + "/" + runtime.GOARCH, Repeats: *repeats, Envs: current}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwatch-perfgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dwatch-perfgate:", err)
			os.Exit(2)
		}
		fmt.Printf("baseline written to %s (%d envs, %d repeats, %s)\n",
			*baselinePath, len(current), *repeats, b.Arch)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwatch-perfgate: no baseline at %s — record one with -update\n", *baselinePath)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dwatch-perfgate: bad baseline %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}

	sameArch := base.Arch == runtime.GOOS+"/"+runtime.GOARCH
	failures, warnings := Evaluate(current, base, sameArch, DefaultTolerance)
	for _, r := range sorted(current) {
		fmt.Printf("%-8s  %8.0f spectra/s  p50 %.3gs  p99 %.3gs  (%d fixes, wall %.2fs)\n",
			r.key, r.val.SpectraPerSec, r.val.ComputeP50, r.val.ComputeP99, r.val.Fixes, r.val.WallSeconds)
	}
	for _, w := range warnings {
		fmt.Println("WARN:", w)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		fmt.Printf("perf gate FAILED: %d regression(s) against %s\n", len(failures), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("perf gate passed against %s (%d envs)\n", *baselinePath, len(current))
}

// measure replays every corpus environment repeats times and keeps the
// best-of-N digest per environment.
func measure(corpus, fleetDir string, repeats int) (map[string]EnvResult, error) {
	catalog, ids, err := fleet.ReadConfigDir(fleetDir)
	if err != nil {
		return nil, err
	}
	out := map[string]EnvResult{}
	for _, env := range ids {
		dir := filepath.Join(corpus, env)
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("corpus env %s missing at %s (run `make corpus`)", env, dir)
		}
		_, dep, err := fleet.Deployment(env, catalog[env])
		if err != nil {
			return nil, err
		}
		var best EnvResult
		for i := 0; i < repeats; i++ {
			sum, err := runOnce(dir, dep)
			if err != nil {
				return nil, fmt.Errorf("env %s repeat %d: %w", env, i, err)
			}
			r := EnvResult{
				FixParity:     sum.FixParity,
				Fixes:         sum.Fixes,
				Spectra:       sum.Spectra,
				SpectraPerSec: sum.SpectraPerSec,
				ReportsPerSec: sum.ReportsPerSec,
				ComputeP50:    sum.ComputeLatency.P50,
				ComputeP99:    sum.ComputeLatency.P99,
				FuseP50:       sum.FuseLatency.P50,
				FuseP99:       sum.FuseLatency.P99,
				WallSeconds:   sum.WallSeconds,
			}
			if i == 0 {
				best = r
				continue
			}
			if r.FixParity != best.FixParity || r.Fixes != best.Fixes {
				return nil, fmt.Errorf("env %s: repeat %d diverged from repeat 0 (parity %s vs %s, fixes %d vs %d) — the replay is not deterministic",
					env, i, r.FixParity, best.FixParity, r.Fixes, best.Fixes)
			}
			best = bestOf(best, r)
		}
		out[env] = best
	}
	return out, nil
}

// runOnce replays one environment's WAL unthrottled through a fresh
// pipeline.
func runOnce(dir string, dep pipeline.Deployment) (*replay.Summary, error) {
	src, err := replay.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sum, err := replay.Run(src, dep, replay.Options{})
	if err != nil {
		return nil, err
	}
	if sum.Reports == 0 {
		return nil, fmt.Errorf("replayed 0 reports from %s (deployment/reader-ID mismatch?)", dir)
	}
	return sum, nil
}

// bestOf folds two repeats: throughput takes the max, latency and wall
// time the min — the per-metric best is the noise-resistant estimator
// (see the bench methodology note in the Makefile).
func bestOf(a, b EnvResult) EnvResult {
	out := a
	out.SpectraPerSec = max(a.SpectraPerSec, b.SpectraPerSec)
	out.ReportsPerSec = max(a.ReportsPerSec, b.ReportsPerSec)
	out.ComputeP50 = min(a.ComputeP50, b.ComputeP50)
	out.ComputeP99 = min(a.ComputeP99, b.ComputeP99)
	out.FuseP50 = min(a.FuseP50, b.FuseP50)
	out.FuseP99 = min(a.FuseP99, b.FuseP99)
	out.WallSeconds = min(a.WallSeconds, b.WallSeconds)
	return out
}

// Evaluate applies the three-tier policy, returning hard failures and
// advisory warnings. Pure so the gate's verdict logic is unit-testable
// without replaying anything.
func Evaluate(current map[string]EnvResult, base Baseline, sameArch bool, tol Tolerance) (failures, warnings []string) {
	envs := make([]string, 0, len(base.Envs))
	for env := range base.Envs {
		envs = append(envs, env)
	}
	sort.Strings(envs)
	for _, env := range envs {
		b := base.Envs[env]
		c, ok := current[env]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured (corpus env removed?)", env))
			continue
		}
		// Tier 1: exactness.
		if c.FixParity != b.FixParity || c.Fixes != b.Fixes {
			msg := fmt.Sprintf("%s: fix parity diverged from baseline (parity %s vs %s, fixes %d vs %d)",
				env, c.FixParity, b.FixParity, c.Fixes, b.Fixes)
			if sameArch {
				failures = append(failures, msg)
			} else {
				warnings = append(warnings, msg+fmt.Sprintf(" — cross-arch run (baseline %s), tolerated", base.Arch))
			}
		}
		// Tier 2: bounded drift.
		if b.SpectraPerSec > 0 && c.SpectraPerSec < b.SpectraPerSec*tol.MinThroughputRatio {
			failures = append(failures, fmt.Sprintf("%s: throughput %0.f spectra/s is below %.0f%% of baseline %.0f",
				env, c.SpectraPerSec, tol.MinThroughputRatio*100, b.SpectraPerSec))
		}
		for _, l := range []struct {
			name    string
			cur, bs float64
		}{
			{"compute p50", c.ComputeP50, b.ComputeP50},
			{"compute p99", c.ComputeP99, b.ComputeP99},
			{"fuse p50", c.FuseP50, b.FuseP50},
			{"fuse p99", c.FuseP99, b.FuseP99},
		} {
			if l.bs > 0 && l.cur > l.bs*tol.MaxLatencyRatio {
				failures = append(failures, fmt.Sprintf("%s: %s %.3gs exceeds %.1f× baseline %.3gs",
					env, l.name, l.cur, tol.MaxLatencyRatio, l.bs))
			}
		}
	}
	for env := range current {
		if _, ok := base.Envs[env]; !ok {
			warnings = append(warnings, fmt.Sprintf("%s: measured but absent from the baseline — re-record with -update", env))
		}
	}
	return failures, warnings
}

// sorted renders a map in key order for stable output.
type kv struct {
	key string
	val EnvResult
}

func sorted(m map[string]EnvResult) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
