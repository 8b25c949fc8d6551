// Command dwatch-replay re-runs localization over recorded LLRP
// traffic: the offline workflow for tuning detection thresholds
// against captured deployments, and the throughput regression harness
// for the streaming pipeline.
//
// It replays two capture formats through internal/replay:
//
//   - a WAL directory written by dwatchd -wal-dir (-wal-dir here too),
//     the native segmented, checksummed format — replay stops cleanly
//     at the first damaged record and reports where;
//   - a legacy stream written by dwatchd -record (-in), deprecated but
//     still replayable; -convert graduates one into WAL segments.
//
// Replay paces at -speed× real time (0 = unthrottled: the pipeline is
// fed as fast as it accepts — the regression-harness mode). The run
// summary reports reports/s, spectra/s, latency digests, and a fix
// parity hash: SHA-256 over the seq-sorted fixes' raw float bits, so
// two runs over the same capture with the same configuration can be
// compared bit for bit. -json emits the summary as one JSON document
// on stdout for scripts (scripts/replay-smoke.sh diffs parity hashes
// across a crash/recover cycle).
//
// -eigensolver and -asm-shards pin the pipeline configuration for A/B
// replays of one capture (scripts/replay-ab.sh): the fusion shard
// count never moves the parity hash, while the eigensolvers differ
// inside the documented tolerance (see DESIGN.md "Scaling the hot
// path"). auto, the default, is the real-valued (unitary) subspace
// stage; qr and jacobi run the complex Hermitian solvers it replaced,
// as the reference.
//
// Usage:
//
//	dwatch-replay -wal-dir DIR [-env hall] [-speed N] [-workers N]
//	              [-eigensolver auto|qr|jacobi] [-asm-shards N] [-json]
//	dwatch-replay -in session.dwrl [...]
//	dwatch-replay -convert -in session.dwrl -wal-dir DIR
//	dwatch-replay -convert -in CORPUS_DIR -wal-dir ROOT   (batch: each *.dwrl → ROOT/<stem>/)
//	dwatch-replay ... [-http 127.0.0.1:8080]
//
// -http serves the observability plane during the replay — useful for
// watching /metrics or the /api/v1/positions SSE stream while a long
// capture re-runs, and for profiling via /debug/pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/health"
	"dwatch/internal/music"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/pmusic"
	"dwatch/internal/replay"
	"dwatch/internal/rf"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
	"dwatch/internal/wal"
)

func main() {
	in := flag.String("in", "", "legacy record file written by dwatchd -record (deprecated format); with -convert, may be a directory of *.dwrl fixtures")
	walDir := flag.String("wal-dir", "", "WAL directory written by dwatchd -wal-dir (with -convert: the destination)")
	convert := flag.Bool("convert", false, "convert -in (legacy) into WAL segments at -wal-dir instead of replaying")
	env := flag.String("env", "hall", "environment preset (array geometry)")
	speed := flag.Float64("speed", 0, "real-time multiplier: 1 = original pacing, 10 = 10x, 0 = unthrottled")
	dropFloor := flag.Float64("drop-floor", 0, "override the per-path drop floor (0 = default)")
	workers := flag.Int("workers", 0, "spectrum worker pool size (0 = GOMAXPROCS)")
	eigensolver := flag.String("eigensolver", "", "eigendecomposition backend for A/B replays: auto (real-valued unitary stage), or the complex Hermitian qr or jacobi reference (empty = auto)")
	asmShards := flag.Int("asm-shards", 0, "fusion shard count for A/B replays (0 = GOMAXPROCS, 1 = serialized fusion)")
	jsonOut := flag.Bool("json", false, "emit the run summary as JSON on stdout")
	httpAddr := flag.String("http", "", "serve the observability plane (metrics, health, positions, pprof) on this address during replay; empty = disabled")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()
	switch *logFormat {
	case "", "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}

	if *convert {
		if err := runConvert(*in, *walDir); err != nil {
			fatal(err)
		}
		return
	}
	if (*in == "") == (*walDir == "") {
		fatal(fmt.Errorf("exactly one of -wal-dir or -in is required (or -convert with both)"))
	}
	if *speed < 0 {
		fatal(fmt.Errorf("-speed %v: must be >= 0", *speed))
	}

	cfg, err := preset(*env)
	if err != nil {
		fatal(err)
	}
	sc, err := sim.Build(cfg)
	if err != nil {
		fatal(err)
	}
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	dep := pipeline.Deployment{Arrays: arrays, Grid: sc.Grid}

	var src replay.Source
	if *walDir != "" {
		s, err := replay.OpenWAL(*walDir)
		if err != nil {
			fatal(err)
		}
		src = s
	} else {
		logger.Warn("-in replays the deprecated legacy format; convert with -convert and use -wal-dir")
		s, err := replay.OpenLegacy(*in)
		if err != nil {
			fatal(err)
		}
		src = s
	}
	defer src.Close()

	solver, err := music.ParseEigensolver(*eigensolver)
	if err != nil {
		fatal(err)
	}
	popts := []pipeline.Option{
		pipeline.WithWorkers(*workers),
		pipeline.WithAssemblerShards(*asmShards),
		pipeline.WithPMusic(pmusic.Options{Music: music.Options{Eigensolver: solver}}),
		pipeline.WithFuser(dwatch.Config{DropFloor: *dropFloor}),
		pipeline.WithLogger(logger),
	}
	var plane *serve.Server
	var onFix func(pipeline.Fix)
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		hub := serve.NewHub(serve.WithHubObs(reg))
		tracer := tracing.New()
		mon := health.New(reg, health.Options{})
		obs.RegisterBuildInfo(reg)
		obs.RegisterRuntime(reg)
		popts = append(popts,
			pipeline.WithObs(reg),
			pipeline.WithTracer(tracer),
			pipeline.WithHealth(mon),
		)
		envName := sc.Name
		onFix = func(fix pipeline.Fix) {
			hub.Publish(serve.Position{
				Env: envName, Seq: fix.Seq,
				X: fix.Pos.X, Y: fix.Pos.Y,
				Confidence: fix.Confidence, Views: fix.Views,
				Readers: fix.Readers, Degraded: fix.Degraded,
				TraceID: fix.TraceID,
				Time:    time.Now(),
			})
		}
		plane = serve.New(
			serve.WithRegistry(reg),
			serve.WithHub(hub),
			serve.WithTracer(tracer),
			serve.WithHealth(mon),
			serve.WithLogger(logger),
		)
		planeAddr, err := plane.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("observability plane up", "url", "http://"+planeAddr.String()+"/")
	}

	sum, err := replay.Run(src, dep, replay.Options{
		Speed:    *speed,
		Pipeline: popts,
		Logger:   logger,
		OnFix:    onFix,
	})
	if plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		plane.Shutdown(ctx)
		cancel()
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	} else {
		printSummary(sum)
	}
	if sum.SourceError != "" || sum.Damage != nil {
		// The capture ended early (torn tail or damaged segment): the
		// replay itself is still valid, but scripts should know.
		os.Exit(2)
	}
}

func printSummary(sum *replay.Summary) {
	fmt.Printf("replay complete: %d fixes, %d misses (parity %s)\n",
		sum.Fixes, sum.Misses, sum.FixParity)
	fmt.Printf("throughput: %d reports (%d spectra) in %.3fs = %.1f reports/s, %.1f spectra/s\n",
		sum.Reports, sum.Spectra, sum.WallSeconds, sum.ReportsPerSec, sum.SpectraPerSec)
	if sum.ComputeLatency.Count > 0 {
		fmt.Printf("latency: compute p50 %.2fms p99 %.2fms, fuse p50 %.2fms p99 %.2fms\n",
			1e3*sum.ComputeLatency.P50, 1e3*sum.ComputeLatency.P99,
			1e3*sum.FuseLatency.P50, 1e3*sum.FuseLatency.P99)
	}
	if sum.SkippedType > 0 || sum.SkippedUnknown > 0 || sum.BadReports > 0 {
		fmt.Printf("skipped: %d non-report messages, %d unknown-reader reports, %d bad payloads\n",
			sum.SkippedType, sum.SkippedUnknown, sum.BadReports)
	}
	if sum.SourceError != "" {
		fmt.Printf("warning: capture ended early: %s\n", sum.SourceError)
	}
	if sum.Damage != nil {
		fmt.Printf("warning: WAL damage in %s at offset %d: %s\n",
			sum.Damage.Segment, sum.Damage.Offset, sum.Damage.Reason)
	}
}

// runConvert graduates a legacy capture into WAL segments, preserving
// timestamps so pacing still works. When -in is a directory, every
// *.dwrl fixture inside becomes its own WAL at <wal-dir>/<stem>/ — the
// per-environment layout dwatchd -env-dir expects, so a corpus of
// legacy captures converts into a fleet-replayable root in one pass.
func runConvert(in, dir string) error {
	if in == "" || dir == "" {
		return fmt.Errorf("-convert needs both -in (legacy source) and -wal-dir (destination)")
	}
	if st, err := os.Stat(in); err == nil && st.IsDir() {
		counts, err := wal.ConvertLegacyDir(in, dir, wal.WithLogger(logger))
		for stem, n := range counts {
			logger.Info("converted legacy capture", "in", stem+".dwrl",
				"wal_dir", dir+"/"+stem, "records", n)
			fmt.Printf("converted %s.dwrl: %d records into %s/%s\n", stem, n, dir, stem)
		}
		if err != nil {
			return fmt.Errorf("batch convert: %w", err)
		}
		fmt.Printf("converted %d fixtures into %s\n", len(counts), dir)
		return nil
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := wal.Open(dir, wal.WithLogger(logger))
	if err != nil {
		return err
	}
	n, err := wal.ConvertLegacy(f, w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("converted %d records, then: %w", n, err)
	}
	st := w.Status()
	logger.Info("converted legacy capture", "in", in, "wal_dir", dir,
		"records", n, "segments", st.Segments, "bytes", st.Bytes)
	fmt.Printf("converted %d records into %s (%d segments, %d bytes)\n", n, dir, st.Segments, st.Bytes)
	return nil
}

func preset(name string) (sim.Config, error) {
	switch name {
	case "library":
		return sim.LibraryConfig(), nil
	case "laboratory", "lab":
		return sim.LaboratoryConfig(), nil
	case "hall":
		return sim.HallConfig(), nil
	case "table":
		return sim.TableConfig(), nil
	default:
		return sim.Config{}, fmt.Errorf("unknown environment %q", name)
	}
}

// logger is the diagnostic sink; replay results still go to stdout so
// the tool stays pipeline-friendly.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatal(err error) {
	logger.Error("dwatch-replay failed", "error", err)
	os.Exit(1)
}
