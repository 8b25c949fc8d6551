package main

import (
	"fmt"
	"sync"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/stats"
	"dwatch/internal/tracing"
)

// pipelinePath is one fix's pipeline timeline read from its trace:
// the ingest and spectrum work of one reader's report, and the fuse
// span.
type pipelinePath struct {
	ingestStart, ingestEnd time.Time
	// computeStart and computeEnd bound the report's spectrum work:
	// the first tag's compute start and the last tag's end.
	computeStart, computeEnd time.Time
	fuseStart, fuseEnd       time.Time
}

// traceSamples collects per-layer samples from finished traces.
type traceSamples struct {
	mu        sync.Mutex
	queueWait dist // per spectrum span: enqueue to compute start
}

// add records a trace's spectrum queue waits and returns the
// timeline of reader's report (ok is false when the trace lacks it).
func (s *traceSamples) add(d tracing.Data, reader string) (pipelinePath, bool) {
	var p pipelinePath
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range d.Spans {
		switch sp.Stage {
		case tracing.StageIngest:
			if sp.Reader == reader {
				p.ingestStart, p.ingestEnd = sp.Start, sp.End
			}
		case tracing.StageSpectrum:
			s.queueWait.addDur(sp.Queue)
			if sp.Reader != reader {
				continue
			}
			if start := sp.Start.Add(sp.Queue); p.computeStart.IsZero() || start.Before(p.computeStart) {
				p.computeStart = start
			}
			if sp.End.After(p.computeEnd) {
				p.computeEnd = sp.End
			}
		case tracing.StageFuse:
			p.fuseStart, p.fuseEnd = sp.Start, sp.End
		}
	}
	return p, !p.computeStart.IsZero() && !p.fuseStart.IsZero()
}

// timeline is one traced fix's critical path through the round's last
// report, as unix nanos; zero marks a point the workload's path does
// not have.
type timeline struct {
	due       int64 // the round was due (read, for replay)
	send      int64 // the last report's send began
	entry     int64 // the LLRP handler received it
	ingested  int64 // its ingest call returned
	path      pipelinePath
	published int64 // Position.Time
	hub       int64 // the in-process hub watcher received the fix
	final     int64 // the workload's delivery point received it
}

// criticalPathLedger prints the mean critical path of the traced fixes
// layer by layer — each row the mean time between two points of the
// timeline, the total the mean due → delivery latency — and returns
// the unexplained share: time no timed call covers, such as waiting
// for the other readers' spectra and hand-offs between stages.
func criticalPathLedger(title string, fixes []timeline) float64 {
	type row struct {
		name string
		span func(t timeline) (from, to int64)
		// hop rows are absent from paths where both ends coincide.
		hop bool
	}
	rows := []row{
		{"loadgen / feeder", func(t timeline) (int64, int64) { return t.due, t.send }, false},
		{"llrp frame", func(t timeline) (int64, int64) { return t.send, t.entry }, true},
		{"ingest call", func(t timeline) (int64, int64) { return t.entry, t.ingested }, false},
		{"pipeline queue wait", func(t timeline) (int64, int64) { return t.ingested, t.path.computeStart.UnixNano() }, false},
		{"pmusic spectra", func(t timeline) (int64, int64) {
			return max(t.ingested, t.path.computeStart.UnixNano()), t.path.computeEnd.UnixNano()
		}, false},
		{"pipeline fuse", func(t timeline) (int64, int64) { return t.path.fuseStart.UnixNano(), t.path.fuseEnd.UnixNano() }, false},
		{"serve hub", func(t timeline) (int64, int64) { return t.published, t.hub }, false},
		{"cluster relay", func(t timeline) (int64, int64) { return t.hub, t.final }, true},
	}
	if len(fixes) == 0 {
		fmt.Println("ledger: no traced fixes")
		return 1
	}
	var total time.Duration
	sums := make([]time.Duration, len(rows))
	present := make([]bool, len(rows))
	for _, t := range fixes {
		total += time.Duration(t.final - t.due)
		for i, r := range rows {
			from, to := r.span(t)
			if from == 0 || to == 0 || r.hop && from == to {
				continue
			}
			present[i] = true
			if to > from {
				sums[i] += time.Duration(to - from)
			}
		}
	}
	n := time.Duration(len(fixes))
	var out []ledgerRow
	for i, r := range rows {
		if present[i] {
			out = append(out, ledgerRow{r.name, sums[i] / n})
		}
	}
	return printLedger(fmt.Sprintf("%s: mean critical path of %d fixes", title, len(fixes)), total/n, out)
}

// setPipelineFromObs reports the pipeline's stage digests and loss
// counters from a registry every measured pipeline shared.
func setPipelineFromObs(o *outcome, reg *obs.Registry) {
	stage := func(name string) stats.HistogramSummary {
		return reg.HistogramVec(obs.SpanFamily, "Per-stage processing latency in seconds.",
			stats.LatencyBounds(), "stage").With(name).Summary()
	}
	sec := func(v float64) float64 { return v * 1e6 }
	spectrum, fuse, assemble := stage("spectrum"), stage("fuse"), stage("assemble")
	o.set("pipeline.compute_us_p50", sec(spectrum.P50))
	o.set("pipeline.compute_us_p99", sec(spectrum.P99))
	o.set("pipeline.fuse_us_p50", sec(fuse.P50))
	o.set("pipeline.fuse_us_p99", sec(fuse.P99))
	o.set("pipeline.assemble_us_p50", sec(assemble.P50))
	snap := reg.Snapshot()
	o.set("pipeline.sequences_evicted", snap[`dwatch_pipeline_sequences_total{outcome="evicted"}`])
	o.set("pipeline.late_reports", snap["dwatch_pipeline_late_reports_total"])
	o.set("pipeline.snapshots_dropped", snap["dwatch_pipeline_snapshots_dropped_total"])
	o.set("pipeline.spectra_failed", snap[`dwatch_pipeline_spectra_total{result="failed"}`])
}

// gaugeMax samples a registry's queue-depth and pending-sequence
// gauges (summed over every pipeline on it) and keeps their maxima.
type gaugeMax struct {
	mu                    sync.Mutex
	reg                   *obs.Registry
	queueDepth, pendingSq float64
}

func (g *gaugeMax) sample() {
	snap := g.reg.Snapshot()
	g.mu.Lock()
	g.queueDepth = max(g.queueDepth, snap["dwatch_pipeline_queue_depth"])
	g.pendingSq = max(g.pendingSq, snap["dwatch_pipeline_pending_sequences"])
	g.mu.Unlock()
}

func (g *gaugeMax) set(o *outcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	o.set("pipeline.queue_depth_max", g.queueDepth)
	o.set("pipeline.pending_seqs_max", g.pendingSq)
}

// setWindow reports the runtime figures of a traced window.
func setWindow(o *outcome, w windowStats, reports int) {
	o.set("go.gc_cpu_share", w.gcCPUShare)
	o.set("go.sched_latency_p99_us", us(w.schedP99))
	if reports > 0 {
		o.set("pipeline.alloc_bytes_per_report", w.allocBytes/float64(reports))
	}
}

// setTail reports a timing's median under p50Name and its tail under
// p99Name (skipped when empty), converted to unit. The tail is the
// highest percentile the percentile rule allows for the sample size;
// when that is below p99 the run says so beside the figure.
func setTail(o *outcome, p50Name, p99Name string, d *dist, unit time.Duration) {
	s := d.in(unit)
	o.set(p50Name, s.median())
	if p99Name == "" {
		return
	}
	t, q := s.tail()
	o.set(p99Name, t)
	if q != 0.99 {
		fmt.Printf("note: %s is p%g of %d samples\n", p99Name, q*100, d.n())
	}
}

// setLatency reports the end-to-end fix latency: the median over
// blocks of each block's median, in milliseconds. It prints the
// blocks' p90 and, over all of d, the highest percentile the
// percentile rule allows, with the sample count; tails are reported,
// not gated, because host noise moves them by more than any bound
// (README.md).
func setLatency(o *outcome, d *dist, blocks []*dist) {
	var p50, p90 []float64
	for _, b := range blocks {
		s := b.sorted()
		p50 = append(p50, quantile(s, 0.5)/float64(time.Millisecond))
		p90 = append(p90, quantile(s, 0.9)/float64(time.Millisecond))
	}
	o.set("fix_latency_p50_ms", medianOf(p50))
	s := d.in(time.Millisecond)
	t, q := s.tail()
	fmt.Printf("fix latency over %d blocks: p50 %.3f ms, p90 %.3f ms; over all %d fixes: p50 %.3f ms, p%g %.3f ms\n",
		len(blocks), medianOf(p50), medianOf(p90), d.n(), s.median(), q*100, t)
}
