package obs

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dwatch/internal/stats"
)

// TestAttachedCountersSum: every read through the registry — the
// handle's Value, Snapshot, exposition — reports the child's own count
// plus every attached counter.
func TestAttachedCountersSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "Jobs.", "env")
	own := v.With("a")
	own.Add(1)
	var a, b Counter
	v.Attach(new(Owner), &a, "a")
	v.Attach(new(Owner), &b, "a")
	a.Add(10)
	b.Add(100)

	if got := own.Value(); got != 111 {
		t.Errorf("handle Value = %d, want 111", got)
	}
	if got := r.Snapshot()[`jobs_total{env="a"}`]; got != 111 {
		t.Errorf("Snapshot = %v, want 111", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `jobs_total{env="a"} 111`+"\n") {
		t.Errorf("exposition lacks the sum:\n%s", sb.String())
	}
	if a.Value() != 10 || b.Value() != 100 {
		t.Errorf("sources read %d, %d; want their own counts 10, 100", a.Value(), b.Value())
	}
}

// TestAttachedHistogramsMerge: a child with attached histograms reads
// exactly like one histogram fed every sample — buckets, count, min
// and max exact, the sum within float rounding.
func TestAttachedHistogramsMerge(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "Latency.", bounds, "stage")
	all := stats.NewHistogram(bounds)
	srcs := []*Histogram{NewHistogram(bounds), NewHistogram(bounds)}
	for _, h := range srcs {
		hv.Attach(new(Owner), h, "fuse")
	}
	own := hv.With("fuse")
	for i, v := range []float64{0.003, 0.05, 0.07, 0.5, 3, 0.0004, 0.2, 9} {
		all.Observe(v)
		switch i % 3 {
		case 0:
			own.Observe(v)
		default:
			srcs[i%3-1].Observe(v)
		}
	}

	got, want := own.Buckets(), all.Buckets()
	if got.Count != want.Count || !slices.Equal(got.Counts, want.Counts) {
		t.Fatalf("merged buckets %v (n=%d), want %v (n=%d)", got.Counts, got.Count, want.Counts, want.Count)
	}
	if math.Abs(got.Sum-want.Sum) > 1e-12 {
		t.Fatalf("merged sum %v, want %v", got.Sum, want.Sum)
	}
	if gs, ws := own.Summary(), all.Summary(); gs.Min != ws.Min || gs.Max != ws.Max || gs.P50 != ws.P50 || gs.P99 != ws.P99 {
		t.Fatalf("merged summary %+v, want %+v", gs, ws)
	}
	if s := r.Snapshot(); s[`lat_seconds_count{stage="fuse"}`] != 8 {
		t.Fatalf("Snapshot count = %v, want 8", s[`lat_seconds_count{stage="fuse"}`])
	}
}

// TestAttachBoundsMismatchPanics: a histogram whose buckets differ
// from its family's is a schema error, like a relabeled family.
func TestAttachBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "Latency.", []float64{0.01, 0.1}, "stage")
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a histogram with other bounds did not panic")
		}
	}()
	hv.Attach(new(Owner), NewHistogram([]float64{0.01, 0.2}), "fuse")
}

// TestReleaseFolds: Release folds counts and samples into the child and
// drops gauge funcs; later counting reaches only the subsystem's own
// values; a second Release and a nil Owner are no-ops.
func TestReleaseFolds(t *testing.T) {
	bounds := []float64{0.01, 0.1}
	r := NewRegistry()
	cv := r.CounterVec("jobs_total", "Jobs.")
	hv := r.HistogramVec("lat_seconds", "Latency.", bounds)
	gv := r.GaugeVec("depth", "Depth.")

	o := new(Owner)
	var c Counter
	h := NewHistogram(bounds)
	cv.Attach(o, &c)
	hv.Attach(o, h)
	gv.Attach(o, func() float64 { return 7 })
	gv.Attach(nil, func() float64 { return 2 })
	c.Add(5)
	h.Observe(0.05)
	h.Observe(0.5)

	before := r.Snapshot()
	o.Release()
	after := r.Snapshot()
	for _, id := range []string{"jobs_total", "lat_seconds_count", "lat_seconds_sum"} {
		if before[id] != after[id] {
			t.Errorf("%s = %v before Release, %v after", id, before[id], after[id])
		}
	}
	if before["depth"] != 9 || after["depth"] != 2 {
		t.Errorf("depth = %v before Release, %v after; want 9, 2", before["depth"], after["depth"])
	}

	c.Add(1000)
	h.Observe(0.001)
	o.Release()
	var nilOwner *Owner
	nilOwner.Release()
	again := r.Snapshot()
	for id, v := range after {
		if again[id] != v {
			t.Errorf("%s moved to %v after Release (was %v)", id, again[id], v)
		}
	}
	if c.Value() != 1005 {
		t.Errorf("released counter reads %d, want its own 1005", c.Value())
	}
}

// TestReleaseRacesScrape: subsystems release while scrapes run. Their
// sources stopped counting before release, so every read must see the
// same totals: a fold that detached before adding (a drop) or added
// before detaching (a double) shows up as a changed total.
func TestReleaseRacesScrape(t *testing.T) {
	bounds := []float64{0.01, 0.1}
	r := NewRegistry()
	cv := r.CounterVec("jobs_total", "Jobs.")
	hv := r.HistogramVec("lat_seconds", "Latency.", bounds)
	cv.With().Add(3)

	const n = 16
	owners := make([]*Owner, n)
	var wantCount uint64 = 3
	for i := range owners {
		owners[i] = new(Owner)
		c := new(Counter)
		c.Add(uint64(i + 1))
		wantCount += uint64(i + 1)
		cv.Attach(owners[i], c)
		h := NewHistogram(bounds)
		for k := 0; k <= i; k++ {
			h.Observe(0.05)
		}
		hv.Attach(owners[i], h)
	}
	wantObs := float64(n * (n + 1) / 2)

	stop := make(chan struct{})
	var wg, scraping sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		scraping.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					scraping.Done() // one scrape done before any release
				}
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				if s["jobs_total"] != float64(wantCount) || s["lat_seconds_count"] != wantObs {
					t.Errorf("scrape saw jobs %v, observations %v; want %d, %v",
						s["jobs_total"], s["lat_seconds_count"], wantCount, wantObs)
					return
				}
				if got := cv.With().Value(); got != wantCount {
					t.Errorf("handle read %d, want %d", got, wantCount)
					return
				}
			}
		}()
	}
	scraping.Wait()
	var rel sync.WaitGroup
	for _, o := range owners {
		rel.Add(1)
		go func() {
			defer rel.Done()
			o.Release()
			o.Release()
		}()
	}
	rel.Wait()
	close(stop)
	wg.Wait()
	if s := r.Snapshot(); s["jobs_total"] != float64(wantCount) || s["lat_seconds_count"] != wantObs {
		t.Fatalf("after release: jobs %v, observations %v", s["jobs_total"], s["lat_seconds_count"])
	}
}
