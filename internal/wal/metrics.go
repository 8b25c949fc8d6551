package wal

import (
	"dwatch/internal/obs"
	"dwatch/internal/stats"
)

// metrics is the WAL's one account of its events: Status reads these
// values, and with WithObs the dwatch_wal_* families read them too
// until Close releases them.
type metrics struct {
	appends, appendedBytes, fsyncs, rotations, deletes obs.Counter
	recovered, truncated                               obs.Counter // found at Open
	appendLatency                                      *obs.Histogram

	own obs.Owner
}

// attach puts the values on reg's dwatch_wal_* families, with the
// on-disk segments/bytes gauge funcs (a no-op on nil).
func (m *metrics) attach(reg *obs.Registry, w *WAL) {
	if reg == nil {
		return
	}
	o := &m.own
	counter := func(c *obs.Counter, name, help string) { reg.CounterVec(name, help).Attach(o, c) }
	counter(&m.appends, "dwatch_wal_appends_total", "Records appended to the ingest WAL.")
	counter(&m.appendedBytes, "dwatch_wal_appended_bytes_total", "Bytes appended to the ingest WAL (framing included).")
	reg.HistogramVec("dwatch_wal_append_seconds",
		"WAL append latency (encode + write, plus fsync under the always policy).",
		stats.LatencyBounds()).Attach(o, m.appendLatency)
	counter(&m.fsyncs, "dwatch_wal_fsyncs_total",
		"fsync calls issued by the WAL (per-append, interval, rotation, and close).")
	counter(&m.rotations, "dwatch_wal_rotations_total", "WAL segment rotations.")
	counter(&m.deletes, "dwatch_wal_retention_deleted_segments_total", "WAL segments deleted by retention.")
	counter(&m.recovered, "dwatch_wal_recovered_records_total", "Records recovered from the WAL at open.")
	counter(&m.truncated, "dwatch_wal_truncated_tail_bytes_total", "Bytes truncated from torn WAL tails at open.")
	reg.GaugeVec("dwatch_wal_segments", "WAL segment files currently on disk.").
		Attach(o, func() float64 { return float64(w.Status().Segments) })
	reg.GaugeVec("dwatch_wal_bytes", "Total WAL bytes currently on disk.").
		Attach(o, func() float64 { return float64(w.Status().Bytes) })
}
