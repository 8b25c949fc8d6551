package replay

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/stats"
	"dwatch/internal/wal"
)

// Options tunes one replay run.
type Options struct {
	// Speed is the real-time multiplier: 1 reproduces the original
	// inter-report pacing, 10 compresses it tenfold, 0 (the default)
	// replays unthrottled — the regression-harness mode, where the
	// pipeline is fed as fast as it will accept.
	Speed float64
	// Pipeline is passed through to pipeline.New. A replay that must
	// reproduce a live run bit for bit configures the pipeline the
	// same way (baseline rounds, fuser thresholds, P-MUSIC options);
	// worker count is free — fixes are worker-count independent.
	Pipeline []pipeline.Option
	// Logger, when set, receives per-run progress logs.
	Logger *slog.Logger
	// OnFix, when set, receives every successful fix as it fuses —
	// dwatch-replay feeds the serve plane's position hub through it.
	OnFix func(pipeline.Fix)

	// now and sleep are test seams; nil uses the real clock.
	now   func() time.Time
	sleep func(time.Duration)
}

// Summary is one replay run's outcome, shaped for JSON emission by
// dwatch-replay -json.
type Summary struct {
	// Source accounting.
	Records        int    `json:"records"`         // messages read from the source
	Reports        int    `json:"reports"`         // RO_ACCESS_REPORTs ingested
	SkippedType    int    `json:"skipped_type"`    // non-report message types
	SkippedUnknown int    `json:"skipped_unknown"` // reports from undeployed readers
	BadReports     int    `json:"bad_reports"`     // payloads that failed to unmarshal
	SourceError    string `json:"source_error,omitempty"`
	// Damage is where a WAL source stopped trusting the log (nil for a
	// clean scan).
	Damage *wal.Damage `json:"damage,omitempty"`

	// Pipeline outcome.
	Fixes         int    `json:"fixes"`
	Misses        int    `json:"misses"`
	DegradedFixes uint64 `json:"degraded_fixes"`
	Spectra       uint64 `json:"spectra"`
	// FixParity digests every fusion outcome (SHA-256 over the
	// seq-sorted fixes' raw float bits). Two runs over the same
	// records with the same pipeline configuration must produce the
	// same parity — the recovery and regression invariant.
	FixParity string `json:"fix_parity"`

	// Throughput.
	Speed         float64 `json:"speed"` // 0 = unthrottled
	WallSeconds   float64 `json:"wall_seconds"`
	ReportsPerSec float64 `json:"reports_per_sec"`
	SpectraPerSec float64 `json:"spectra_per_sec"`

	// Latency digests (seconds), from the pipeline's stage histograms.
	ComputeLatency stats.HistogramSummary `json:"compute_latency"`
	FuseLatency    stats.HistogramSummary `json:"fuse_latency"`
}

// Run replays src through a fresh pipeline for dep and returns the
// run's summary. The source is read to completion (or first damage);
// a torn tail ends the run cleanly rather than failing it, mirroring
// recovery semantics. Run closes neither the
// source nor anything else it did not create.
func Run(src Source, dep pipeline.Deployment, opts Options) (*Summary, error) {
	now := opts.now
	if now == nil {
		now = time.Now
	}
	sleep := opts.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	p, err := pipeline.New(dep, opts.Pipeline...)
	if err != nil {
		return nil, err
	}
	var fixes []pipeline.Fix
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range p.Fixes() {
			fixes = append(fixes, f)
			if opts.OnFix != nil && f.Err == nil {
				opts.OnFix(f)
			}
		}
	}()
	p.Start()

	sum := &Summary{Speed: opts.Speed}
	var first, virtual time.Time // capture-time origin of the pacing clock
	start := now()
	for {
		item, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// A torn tail is the expected end of a crashed capture:
			// report it, keep everything replayed so far.
			sum.SourceError = err.Error()
			opts.Logger.Warn("replay: source ended early", "error", err)
			break
		}
		sum.Records++
		if opts.Speed > 0 {
			if first.IsZero() {
				first, virtual = item.At, item.At
			}
			// Pace against the capture clock, compressed by Speed.
			if item.At.After(virtual) {
				virtual = item.At
			}
			target := start.Add(time.Duration(float64(virtual.Sub(first)) / opts.Speed))
			if d := target.Sub(now()); d > 0 {
				sleep(d)
			}
		}
		if item.Type != llrp.MsgROAccessReport {
			sum.SkippedType++
			continue
		}
		rep, err := llrp.UnmarshalROAccessReport(item.Payload)
		if err != nil {
			sum.BadReports++
			opts.Logger.Warn("replay: bad report payload", "seq", item.Seq, "error", err)
			continue
		}
		switch err := p.Ingest(rep); {
		case err == nil:
			sum.Reports++
		case errors.Is(err, pipeline.ErrUnknownReader):
			sum.SkippedUnknown++
		default:
			p.Close()
			<-done
			return nil, fmt.Errorf("replay: ingest: %w", err)
		}
	}
	p.Drain()
	<-done

	if ws, ok := src.(*WALSource); ok {
		sum.Damage = ws.Damage()
	}
	wall := now().Sub(start).Seconds()
	st := p.Stats()
	for _, f := range fixes {
		if f.Err == nil {
			sum.Fixes++
		} else {
			sum.Misses++
		}
	}
	sum.DegradedFixes = st.DegradedFixes
	sum.Spectra = st.SpectraComputed
	sum.FixParity = HashFixes(fixes)
	sum.WallSeconds = wall
	if wall > 0 {
		sum.ReportsPerSec = float64(sum.Reports) / wall
		sum.SpectraPerSec = float64(st.SpectraComputed) / wall
	}
	sum.ComputeLatency = st.ComputeLatency
	sum.FuseLatency = st.FuseLatency
	opts.Logger.Info("replay: run complete",
		"records", sum.Records, "reports", sum.Reports,
		"fixes", sum.Fixes, "misses", sum.Misses,
		"spectra_per_sec", sum.SpectraPerSec, "fix_parity", sum.FixParity)
	return sum, nil
}
