package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent re-registration returns the same instance.
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	r.GaugeFunc("gf", "a func gauge", func() float64 { return 42 })
	if got := r.Snapshot()["gf"]; got != 42 {
		t.Fatalf("gauge func = %v, want 42", got)
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reports_total", "reports", "reader")
	v.With("r1").Add(3)
	v.With("r2").Inc()
	if v.With("r1") != v.With("r1") {
		t.Fatal("With is not stable")
	}
	s := r.Snapshot()
	if s[`reports_total{reader="r1"}`] != 3 || s[`reports_total{reader="r2"}`] != 1 {
		t.Fatalf("snapshot = %v", s)
	}

	h := r.HistogramVec("lat", "latency", []float64{1, 10}, "stage")
	h.With("fuse").Observe(0.5)
	h.With("fuse").Observe(5)
	s = r.Snapshot()
	if s[`lat_count{stage="fuse"}`] != 2 || s[`lat_sum{stage="fuse"}`] != 5.5 {
		t.Fatalf("histogram snapshot = %v", s)
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "m")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "nope")
}

// TestNilRegistry: every constructor and metric op must be a safe
// no-op on a nil registry — this is what lets the pipeline thread an
// optional registry through without branches.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("c_total", "c").Inc()
	r.Gauge("g", "g").Set(1)
	r.GaugeFunc("gf", "gf", func() float64 { return 1 })
	r.Histogram("h", "h", []float64{1}).Observe(1)
	r.CounterVec("cv_total", "cv", "l").With("x").Add(2)
	r.GaugeVec("gv", "gv", "l").With("x").Add(2)
	r.HistogramVec("hv", "hv", []float64{1}, "l").With("x").Observe(1)
	r.Event("boom")
	sp := r.StartSpan("stage")
	if d := sp.End(); d < 0 {
		t.Fatalf("nil-registry span elapsed %v", d)
	}
	if s := r.Snapshot(); len(s) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", s)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, err %v", sb.String(), err)
	}
}

func TestSpanRecordsStage(t *testing.T) {
	r := NewRegistry()
	t0 := time.Unix(1000, 0)
	sp := r.StartSpanAt("spectrum", t0)
	d := sp.EndAt(t0.Add(250 * time.Millisecond))
	if d != 250*time.Millisecond {
		t.Fatalf("elapsed = %v, want 250ms", d)
	}
	s := r.Snapshot()
	if s[`dwatch_stage_duration_seconds_count{stage="spectrum"}`] != 1 {
		t.Fatalf("span not recorded: %v", s)
	}
	if got := s[`dwatch_stage_duration_seconds_sum{stage="spectrum"}`]; got != 0.25 {
		t.Fatalf("span sum = %v, want 0.25", got)
	}
}

func TestEventCounts(t *testing.T) {
	r := NewRegistry()
	r.Event("evict")
	r.Event("evict")
	r.Event("reconnect")
	s := r.Snapshot()
	if s[`dwatch_events_total{event="evict"}`] != 2 || s[`dwatch_events_total{event="reconnect"}`] != 1 {
		t.Fatalf("events = %v", s)
	}
}

// TestConcurrentUse hammers one family from many goroutines; run under
// -race this is the synchronization proof for the registry.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits_total", "hits", "worker")
	h := r.Histogram("lat", "lat", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < 500; i++ {
				v.With(name).Inc()
				h.Observe(float64(i) / 1e4)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		r.Snapshot()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s := r.Snapshot()
	var total float64
	for _, id := range s.sortedIDs() {
		if strings.HasPrefix(id, "hits_total{") {
			total += s[id]
		}
	}
	if total != 8*500 {
		t.Fatalf("total hits = %v, want %d", total, 8*500)
	}
	if s["lat_count"] != 8*500 {
		t.Fatalf("lat count = %v", s["lat_count"])
	}
}

// TestVecRemove: Remove ends a labeled series — it disappears from
// Snapshot and exposition, attached gauge funcs die with the child,
// and a later With for the same values starts a fresh child.
func TestVecRemove(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("jobs_total", "jobs", "env")
	gv := r.GaugeVec("depth", "depth", "env")
	hv := r.HistogramVec("lat", "lat", []float64{0.01}, "env")

	cv.With("a").Add(5)
	cv.With("b").Add(7)
	gv.Attach(nil, func() float64 { return 42 }, "a")
	hv.With("a").Observe(0.005)

	cv.Remove("a")
	gv.Remove("a")
	hv.Remove("a")

	s := r.Snapshot()
	for _, id := range []string{`jobs_total{env="a"}`, `depth{env="a"}`, `lat_count{env="a"}`} {
		if _, ok := s[id]; ok {
			t.Errorf("%s survived Remove: %v", id, s[id])
		}
	}
	if s[`jobs_total{env="b"}`] != 7 {
		t.Errorf("sibling series disturbed: %v", s[`jobs_total{env="b"}`])
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `env="a"`) {
		t.Errorf("exposition still mentions removed series:\n%s", sb.String())
	}

	// Re-With starts from zero with no inherited gauge funcs.
	if v := cv.With("a").Value(); v != 0 {
		t.Errorf("recreated counter = %v, want 0", v)
	}
	if v := r.Snapshot()[`depth{env="a"}`]; v != 0 {
		t.Errorf("recreated gauge child inherited funcs: %v", v)
	}

	// Removing an absent child is a no-op.
	cv.Remove("never-existed")

	// A nil vec ignores Remove like every other method.
	var nilCV *CounterVec
	nilCV.Remove("x")
}
