package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/fleet"
	"dwatch/internal/geom"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {50000, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, q*100)
		}
	}
	var d dist
	for i := 1; i <= 100; i++ {
		d.add(float64(i))
	}
	v, q := d.tail()
	if q != 0.9 || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90.1 at p90", v, q*100)
	}
	if v, q := (&dist{v: []float64{1, 2, 3}}).tail(); q != 0 || !math.IsNaN(v) {
		t.Errorf("tail of 3 samples = %g at p%g, want none", v, q*100)
	}
}

// fakeClock is a manual clock: waiting advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) waitUntil(t time.Time)   { c.t = t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestDueTimeLatencyUnderStalledSink(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	const interval = 10 * time.Millisecond
	sch := schedule{start: clk.now(), interval: interval, now: clk.now, waitUntil: clk.waitUntil}
	var latency []time.Duration
	var lags []time.Duration
	n, err := sch.run(sch.due(10), func(i int, due time.Time) error {
		if i == 2 {
			clk.advance(100 * time.Millisecond) // the sink stalls on item 2
		}
		// Delivery completes when the send returns; latency counts from
		// the due time, not from when the item went out.
		latency = append(latency, clk.now().Sub(due))
		return nil
	}, func(_ time.Time, d time.Duration) { lags = append(lags, d) })
	if err != nil || n != 10 {
		t.Fatalf("sent %d items (err %v), want all 10: none may be skipped", n, err)
	}
	if latency[2] != 100*time.Millisecond {
		t.Errorf("stalled item latency %v, want 100ms", latency[2])
	}
	// Item 3 was due at 30 ms but went out at 120 ms, when the stall
	// ended: its latency carries the 90 ms it waited behind item 2.
	for i, want := range map[int]time.Duration{3: 90 * time.Millisecond, 4: 80 * time.Millisecond, 9: 30 * time.Millisecond} {
		if latency[i] != want {
			t.Errorf("item %d latency %v, want %v", i, latency[i], want)
		}
		if lags[i] != want {
			t.Errorf("item %d generator lag %v, want %v", i, lags[i], want)
		}
	}
	if lags[1] != 0 || latency[1] != 0 {
		t.Errorf("on-time item: lag %v latency %v, want 0", lags[1], latency[1])
	}
}

func TestReferenceCatchesPerturbedFix(t *testing.T) {
	ref := refFix{ok: true, x: 1.25, y: 3.5, conf: 0.75, views: 3, readers: []string{"a/r1", "a/r2", "a/r3"}}
	fix := pipeline.Fix{Pos: geom.Pt(1.25, 3.5, 1.25), Confidence: 0.75, Views: 3, Readers: []string{"a/r1", "a/r2", "a/r3"}}
	if !ref.same(fixOf(fix)) {
		t.Fatal("identical fix does not match")
	}
	bumped := fix
	bumped.Pos.Y = math.Nextafter(fix.Pos.Y, 4)
	if ref.same(fixOf(bumped)) {
		t.Error("a fix one ULP off matches the reference")
	}

	// The same through a served frame: JSON round-trips float64
	// exactly, so the check survives decoding and still catches one
	// perturbed fix among several.
	in := &envInputs{id: "a", truth: make([]geom.Point, 3), readers: []string{"a/r1"}}
	e := newPoolEnv(in, &reference{fixes: []refFix{ref, ref, {}}}, 6, 1)
	c := e.consumers[0]
	for k := 0; k < 6; k++ {
		e.due[k].Store(int64(k + 1))
		if k%3 == 2 {
			continue // the reference has no fix for these rounds
		}
		p := api.Position{Env: "a", Seq: uint32(firstTargetSeq + k), X: ref.x, Y: ref.y,
			Confidence: ref.conf, Views: ref.views, Readers: ref.readers, Time: time.Unix(0, 1)}
		if k == 4 {
			p.X = math.Nextafter(p.X, 0)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		c.record(raw, time.Unix(0, 2))
	}
	e.sent.Store(6)
	o := newOutcome()
	e.check(o)
	if o.attempted != 6 || o.failed != 1 {
		t.Errorf("attempted %d failed %d, want 6 and 1", o.attempted, o.failed)
	}

	// A fix where the reference has none, and a missing one, fail too.
	c.recs[2] = receipt{at: 5, ok: false}
	c.recs[0] = receipt{}
	o = newOutcome()
	e.check(o)
	if o.failed != 3 {
		t.Errorf("failed %d, want 3", o.failed)
	}
}

func TestPayloadWithSeq(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("dwbench")
	catalog, _, err := fleet.ReadConfigDir(replayConfigDir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate("site-a", catalog["site-a"], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := llrp.UnmarshalROAccessReport(in.payload(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := llrp.UnmarshalROAccessReport(in.payloadWithSeq(3, 1, 123456))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 123456 || got.ReaderID != orig.ReaderID || len(got.Reports) != len(orig.Reports) {
		t.Fatalf("renumbered report: seq %d reader %q tags %d", got.Seq, got.ReaderID, len(got.Reports))
	}
	if in.payload(3, 1)[in.seqOffset[in.readers[1]]+3] != byte(orig.Seq) {
		t.Error("renumbering modified the pool payload")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		list  string
		specs []metricSpec
		bench []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndMetrics, bench.EndToEnd},
		{"per_layer", perLayerMetrics, bench.PerLayer},
	} {
		if len(c.specs) != len(c.bench) {
			t.Errorf("%s: the benchmark emits %d metrics, BENCHMARK.json lists %d", c.list, len(c.specs), len(c.bench))
			continue
		}
		for i, s := range c.specs {
			if !name.MatchString(s.name) {
				t.Errorf("%s: bad metric name %q", c.list, s.name)
			}
			if b := c.bench[i]; b.Name != s.name || b.Unit != s.unit {
				t.Errorf("%s[%d]: emits %s (%s), BENCHMARK.json says %s (%s)", c.list, i, s.name, s.unit, b.Name, b.Unit)
			}
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark implements %d", names, len(workloads))
	}
}
