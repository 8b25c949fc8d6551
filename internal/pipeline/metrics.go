package pipeline

import (
	"dwatch/internal/obs"
	"dwatch/internal/rf"
	"dwatch/internal/stats"
)

// Metric names the pipeline exports when a registry is attached.
// Label conventions: reader= is the deployment reader ID, result=
// discriminates outcomes inside one flow, stage= (on the shared
// obs.SpanFamily histograms) is ingest|spectrum|assemble|fuse.
const (
	metricReports          = "dwatch_pipeline_reports_total"
	metricReportsRejected  = "dwatch_pipeline_reports_rejected_total"
	metricSnapshots        = "dwatch_pipeline_snapshots_total"
	metricSnapshotsDropped = "dwatch_pipeline_snapshots_dropped_total"
	metricSpectra          = "dwatch_pipeline_spectra_total"
	metricBaselines        = "dwatch_pipeline_baselines_confirmed_total"
	metricSequences        = "dwatch_pipeline_sequences_total"
	metricLateReports      = "dwatch_pipeline_late_reports_total"
	metricFixes            = "dwatch_pipeline_fixes_total"
	metricQueueDepth       = "dwatch_pipeline_queue_depth"
	metricPendingSeqs      = "dwatch_pipeline_pending_sequences"
)

// Stage labels on the obs.SpanFamily duration histograms, in flow
// order. The assemble span measures first-report-to-complete per
// sequence, not goroutine work, so it reflects cross-reader skew.
const (
	stageIngest   = "ingest"
	stageSpectrum = "spectrum"
	stageAssemble = "assemble"
	stageFuse     = "fuse"
)

// metrics is the pipeline's one account of its events: each event
// site increments one value, Stats derives its fields from them, and
// with Config.Obs set the registry reads the same values.
type metrics struct {
	readers map[string]*readerMetrics

	rejected         obs.Counter
	snapshots        obs.Counter // per-tag jobs enqueued, batched per report
	snapshotsDropped obs.Counter
	spectraOK        obs.Counter
	spectraFailed    obs.Counter
	assembled        obs.Counter
	evictedTTL       obs.Counter
	evictedCap       obs.Counter
	late             obs.Counter
	fixFull          obs.Counter // fused from every expected reader
	fixDegraded      obs.Counter // fused from the live quorum
	fixMiss          obs.Counter

	// Stage latencies in seconds, in flow order.
	ingest, spectrum, assemble, fuse *obs.Histogram

	own obs.Owner // what attach put on the registry; teardown releases it
}

// readerMetrics are one reader's counters (the reader set is fixed at
// New, so the hot path looks them up without the registry).
type readerMetrics struct{ reports, baselines obs.Counter }

func (m *metrics) init(arrays map[string]*rf.Array) {
	m.readers = make(map[string]*readerMetrics, len(arrays))
	for id := range arrays {
		m.readers[id] = &readerMetrics{}
	}
	bounds := stats.LatencyBounds()
	m.ingest = obs.NewHistogram(bounds)
	m.spectrum = obs.NewHistogram(bounds)
	m.assemble = obs.NewHistogram(bounds)
	m.fuse = obs.NewHistogram(bounds)
}

// attach puts every value on its family child of reg (a no-op on nil).
// The children exist from construction, so the families are on
// /metrics before the first report.
func (m *metrics) attach(reg *obs.Registry, p *Pipeline) {
	if reg == nil {
		return
	}
	o := &m.own
	reports := reg.CounterVec(metricReports, "Reports accepted from known readers.", "reader")
	baselines := reg.CounterVec(metricBaselines, "Baseline confirmations per reader.", "reader")
	for id, r := range m.readers {
		reports.Attach(o, &r.reports, id)
		baselines.Attach(o, &r.baselines, id)
	}
	reg.CounterVec(metricReportsRejected, "Reports rejected (unknown reader).").Attach(o, &m.rejected)
	reg.CounterVec(metricSnapshots, "Per-tag snapshot jobs enqueued.").Attach(o, &m.snapshots)
	reg.CounterVec(metricSnapshotsDropped, "Snapshot jobs shed by the drop-oldest overload policy.").Attach(o, &m.snapshotsDropped)
	spectra := reg.CounterVec(metricSpectra, "P-MUSIC spectrum computations by result.", "result")
	spectra.Attach(o, &m.spectraOK, "ok")
	spectra.Attach(o, &m.spectraFailed, "failed")
	sequences := reg.CounterVec(metricSequences, "Acquisition sequences by outcome.", "outcome")
	sequences.Attach(o, &m.assembled, "assembled")
	sequences.Attach(o, &m.evictedTTL, "evicted") // both causes; the events keep them apart
	sequences.Attach(o, &m.evictedCap, "evicted")
	reg.CounterVec(metricLateReports, "Reports for already-fused or evicted sequences.").Attach(o, &m.late)
	fixes := reg.CounterVec(metricFixes, "Fusion outcomes.", "result")
	fixes.Attach(o, &m.fixFull, "fix")
	fixes.Attach(o, &m.fixDegraded, "degraded")
	fixes.Attach(o, &m.fixMiss, "miss")
	spans := reg.Spans()
	spans.Attach(o, m.ingest, stageIngest)
	spans.Attach(o, m.spectrum, stageSpectrum)
	spans.Attach(o, m.assemble, stageAssemble)
	spans.Attach(o, m.fuse, stageFuse)
	reg.GaugeVec(metricQueueDepth, "Instantaneous report-queue occupancy.").
		Attach(o, func() float64 { return float64(len(p.jobs)) })
	reg.GaugeVec(metricPendingSeqs, "Sequences currently mid-assembly.").
		Attach(o, func() float64 { return float64(p.asm.pendingSequences()) })
	events := reg.Events()
	events.Attach(o, &m.evictedTTL, "sequence_evicted_ttl")
	events.Attach(o, &m.evictedCap, "sequence_evicted_cap")
}

// Stats snapshots the pipeline's metrics — the values /metrics reads.
// Safe to call at any time from any goroutine: every value is an atomic
// or locked — the fusion shards publish their pending-sequence count
// through a shared atomic mirror, so there is no unsynchronized read of
// shard state (TestStatsRaceWithAssembler drives this under the race
// detector). The snapshot is not a consistent cut across stages:
// counters are sampled independently while work is in flight, and only
// settle into a mutually consistent view after Drain.
func (p *Pipeline) Stats() Stats {
	m := &p.m
	var reports, baselines uint64
	for _, r := range m.readers {
		reports += r.reports.Value()
		baselines += r.baselines.Value()
	}
	degraded := m.fixDegraded.Value()
	return Stats{
		ReportsIn:          reports,
		ReportsRejected:    m.rejected.Value(),
		SnapshotsIn:        m.snapshots.Value(),
		SnapshotsDropped:   m.snapshotsDropped.Value(),
		SpectraComputed:    m.spectraOK.Value(),
		SpectraFailed:      m.spectraFailed.Value(),
		BaselinesConfirmed: baselines,
		SequencesAssembled: m.assembled.Value(),
		SequencesEvicted:   m.evictedTTL.Value() + m.evictedCap.Value(),
		LateReports:        m.late.Value(),
		Fixes:              m.fixFull.Value() + degraded,
		DegradedFixes:      degraded,
		Misses:             m.fixMiss.Value(),
		QueueDepth:         len(p.jobs),
		PendingSequences:   p.asm.pendingSequences(),
		ComputeLatency:     m.spectrum.Summary(),
		FuseLatency:        m.fuse.Summary(),
	}
}
