package pipeline

import "dwatch/internal/stats"

// Stats is a point-in-time snapshot of the pipeline's health: flow
// counters per stage, the current queue depth, and per-stage latency
// digests.
type Stats struct {
	// Ingest stage.
	ReportsIn        uint64 // reports accepted from known readers
	ReportsRejected  uint64 // reports from unknown readers
	SnapshotsIn      uint64 // per-tag snapshots enqueued (batched per report)
	SnapshotsDropped uint64 // snapshots shed by the DropOldest policy

	// Spectrum worker pool.
	SpectraComputed uint64 // successful P-MUSIC runs
	SpectraFailed   uint64 // decode or compute failures

	// Assembler / fusion.
	BaselinesConfirmed uint64 // readers whose baseline completed
	SequencesAssembled uint64 // sequences with evidence from every reader
	SequencesEvicted   uint64 // incomplete sequences dropped (TTL or cap)
	LateReports        uint64 // reports for already-fused/evicted sequences
	Fixes              uint64
	DegradedFixes      uint64 // fixes fused from the live quorum with a reader down
	Misses             uint64

	// QueueDepth is the instantaneous report-queue occupancy (whole
	// reports — dispatch is batched, one queue slot per report).
	QueueDepth int
	// PendingSequences is how many sequences are mid-assembly across
	// all fusion shards, sampled from the shared atomic mirror of the
	// shard group tables.
	PendingSequences int

	// ComputeLatency digests per-snapshot decode+P-MUSIC time (s).
	ComputeLatency stats.HistogramSummary
	// FuseLatency digests per-sequence view-building+localize time (s).
	FuseLatency stats.HistogramSummary
}
