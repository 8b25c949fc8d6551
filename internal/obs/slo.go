package obs

import (
	"sync"
	"time"
)

// SLO tracking: each environment can declare an ingest→fix latency
// objective ("99% of fixes within 250ms") in its deployment config,
// and the tracker turns the fix stream into the dwatch_slo_* families
// plus multi-window burn rates. Burn rate is the standard SRE measure:
// (observed error ratio over a window) / (allowed error ratio), so 1.0
// burns the error budget exactly at the sustainable pace, and a fast
// window >> 1 while the slow window is still low flags an incident
// that just started. Buckets are coarse (a minute by default) because
// the consumer is a scrape loop, not a query engine.

// SLOOptions configures one environment's latency objective.
type SLOOptions struct {
	// Target is the per-event latency objective (default 250ms).
	Target time.Duration
	// Objective is the fraction of events that must meet Target
	// (default 0.99). Values outside (0,1) are clamped.
	Objective float64
	// BucketWidth is the burn-rate accounting granularity (default
	// 1 minute).
	BucketWidth time.Duration
	// FastWindow and SlowWindow are the two burn-rate horizons
	// (defaults 5 minutes and 1 hour).
	FastWindow, SlowWindow time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// sloBucket is one BucketWidth of event accounting.
type sloBucket struct {
	id         int64 // bucket sequence number (unix / width)
	total, bad uint64
}

// SLOTracker accounts one environment's fix latencies against its
// objective. A nil tracker is a no-op, so environments without an SLO
// block cost nothing. Close ends the env's series (handoff-safe: a
// removed env's SLO series must not linger on /metrics).
type SLOTracker struct {
	env       string
	target    float64 // seconds
	objective float64
	width     time.Duration
	fast      int // buckets per fast window
	slow      int // buckets per slow window
	now       func() time.Time

	reg      *Registry
	events   *Counter
	breaches *Counter

	mu      sync.Mutex
	closed  bool
	buckets []sloBucket // ring indexed by id % len
}

// NewSLOTracker registers the dwatch_slo_* series for env and returns
// the tracker. A nil registry still returns a working tracker (burn
// rates queryable) with no exposition.
func NewSLOTracker(r *Registry, env string, o SLOOptions) *SLOTracker {
	if o.Target <= 0 {
		o.Target = 250 * time.Millisecond
	}
	if o.Objective <= 0 || o.Objective >= 1 {
		o.Objective = 0.99
	}
	if o.BucketWidth <= 0 {
		o.BucketWidth = time.Minute
	}
	if o.FastWindow <= 0 {
		o.FastWindow = 5 * time.Minute
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = time.Hour
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	t := &SLOTracker{
		env:       env,
		target:    o.Target.Seconds(),
		objective: o.Objective,
		width:     o.BucketWidth,
		fast:      windowBuckets(o.FastWindow, o.BucketWidth),
		slow:      windowBuckets(o.SlowWindow, o.BucketWidth),
		now:       o.Now,
		reg:       r,
	}
	t.buckets = make([]sloBucket, t.slow+1)
	if r != nil {
		r.GaugeVec("dwatch_slo_target_seconds",
			"Per-environment ingest-to-fix latency objective.", "env").
			With(env).Set(t.target)
		r.GaugeVec("dwatch_slo_objective",
			"Fraction of fixes that must meet the latency target.", "env").
			With(env).Set(t.objective)
		t.events = r.CounterVec("dwatch_slo_events_total",
			"Fixes accounted against the environment's latency SLO.", "env").With(env)
		t.breaches = r.CounterVec("dwatch_slo_breaches_total",
			"Fixes that missed the environment's latency target.", "env").With(env)
		burn := r.GaugeVec("dwatch_slo_burn_rate",
			"Error-budget burn rate over the fast/slow window (1.0 = budget consumed exactly at the sustainable pace).",
			"env", "window")
		burn.Attach(nil, t.burnFunc(func() int { return t.fast }), env, "fast")
		burn.Attach(nil, t.burnFunc(func() int { return t.slow }), env, "slow")
	}
	return t
}

func windowBuckets(window, width time.Duration) int {
	n := int((window + width - 1) / width)
	if n < 1 {
		n = 1
	}
	return n
}

// Observe accounts one fix latency.
func (t *SLOTracker) Observe(latency time.Duration) {
	if t == nil {
		return
	}
	bad := latency.Seconds() > t.target
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	b := t.bucketLocked(t.nowBucket())
	b.total++
	if bad {
		b.bad++
	}
	t.mu.Unlock()
	t.events.Inc()
	if bad {
		t.breaches.Inc()
	}
}

func (t *SLOTracker) nowBucket() int64 {
	return t.now().UnixNano() / int64(t.width)
}

// bucketLocked returns the ring slot for bucket id, recycling slots
// whose id has aged out.
func (t *SLOTracker) bucketLocked(id int64) *sloBucket {
	b := &t.buckets[int(id%int64(len(t.buckets)))]
	if b.id != id {
		*b = sloBucket{id: id}
	}
	return b
}

// BurnRate returns the burn rate over the last n buckets:
// (bad/total over the window) / (1 - objective). Zero when the window
// saw no events.
func (t *SLOTracker) burnRate(n int) float64 {
	if t == nil {
		return 0
	}
	nowID := t.nowBucket()
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, bad uint64
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.id > nowID-int64(n) && b.id <= nowID {
			total += b.total
			bad += b.bad
		}
	}
	if total == 0 {
		return 0
	}
	ratio := float64(bad) / float64(total)
	return ratio / (1 - t.objective)
}

// FastBurn returns the burn rate over the fast window.
func (t *SLOTracker) FastBurn() float64 {
	if t == nil {
		return 0
	}
	return t.burnRate(t.fast)
}

// SlowBurn returns the burn rate over the slow window.
func (t *SLOTracker) SlowBurn() float64 {
	if t == nil {
		return 0
	}
	return t.burnRate(t.slow)
}

// burnFunc is the collection-time gauge body; it reads 0 once the
// tracker is closed so a drained environment's (already-removed)
// series cannot report stale burn if something re-creates the child.
func (t *SLOTracker) burnFunc(n func() int) func() float64 {
	return func() float64 {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return 0
		}
		return t.burnRate(n())
	}
}

// Close ends the environment's dwatch_slo_* series and stops
// accounting. Idempotent.
func (t *SLOTracker) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	if t.reg == nil {
		return
	}
	// Re-resolving the vecs is idempotent registration; Remove drops
	// the env's children (and the burn gauge funcs with them).
	t.reg.GaugeVec("dwatch_slo_target_seconds", "", "env").Remove(t.env)
	t.reg.GaugeVec("dwatch_slo_objective", "", "env").Remove(t.env)
	t.reg.CounterVec("dwatch_slo_events_total", "", "env").Remove(t.env)
	t.reg.CounterVec("dwatch_slo_breaches_total", "", "env").Remove(t.env)
	burn := t.reg.GaugeVec("dwatch_slo_burn_rate", "", "env", "window")
	burn.Remove(t.env, "fast")
	burn.Remove(t.env, "slow")
}
