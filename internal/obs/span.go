package obs

import (
	"time"

	"dwatch/internal/stats"
)

// Canonical family names for the span/event recorder. Every span ends
// up in one histogram family labeled by stage, every event in one
// counter family labeled by event name, so dashboards get a uniform
// shape across subsystems.
const (
	SpanFamily  = "dwatch_stage_duration_seconds"
	EventFamily = "dwatch_events_total"
)

// Span times one unit of staged work. It is a value type: obtain one
// from StartSpan at the top of a stage and call End (or EndAt with an
// explicit clock) when the stage completes. The zero Span is a valid
// no-op recorder.
//
// StartSpan resolves the stage's SpanFamily child on every call, which
// suits occasional stages (a reconnect backoff). A hot path owns its
// stage histograms instead and attaches them to the family with
// HistogramVec.Attach, as the pipeline does.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing the named stage now. On a nil registry the
// span still measures (End returns the true elapsed time) but records
// nothing.
func (r *Registry) StartSpan(stage string) Span {
	return r.StartSpanAt(stage, time.Now())
}

// StartSpanAt begins timing the named stage from an explicit start
// time — the seam for code with its own clock (the pipeline's
// fake-clock tests, or stages whose start predates the call, like
// sequence assembly that begins when the first report arrives).
func (r *Registry) StartSpanAt(stage string, start time.Time) Span {
	return Span{h: r.Spans().With(stage), start: start}
}

// Spans returns the SpanFamily histogram vector, one child per stage.
func (r *Registry) Spans() *HistogramVec {
	return r.HistogramVec(SpanFamily, "Per-stage processing latency in seconds.",
		stats.LatencyBounds(), "stage")
}

// Events returns the EventFamily counter vector, one child per event.
func (r *Registry) Events() *CounterVec {
	return r.CounterVec(EventFamily, "Count of named events.", "event")
}

// End records the span against the wall clock and returns the elapsed
// duration.
func (s Span) End() time.Duration { return s.EndAt(time.Now()) }

// EndAt records the span as finishing at now and returns the elapsed
// duration.
func (s Span) EndAt(now time.Time) time.Duration {
	d := now.Sub(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	return d
}

// Event counts one occurrence of a named event — the counter analogue
// of a span, for discrete happenings (evictions, reconnects, state
// saves) that want a uniform home. No-op on a nil registry.
func (r *Registry) Event(name string) {
	r.Events().With(name).Inc()
}
