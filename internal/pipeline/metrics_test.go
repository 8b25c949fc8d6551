package pipeline

import (
	"sync/atomic"
	"testing"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/stats"
)

// TestSharedRegistryTotals: two pipelines on one registry. Once both
// have fused every sequence, each unlabeled total reads the sum of
// their Stats, and draining one pipeline (which releases its values
// from the registry) leaves every total unchanged.
func TestSharedRegistryTotals(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports := genReports(t, sc, 3, 6)
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	outcomes := len(pipelineFixes(t, sc, reports, 2))
	if outcomes == 0 {
		t.Fatal("reference run fused nothing")
	}

	reg := obs.NewRegistry()
	var ps [2]*Pipeline
	var fused [2]atomic.Int64
	var waits [2]func() []Fix
	for i := range ps {
		p, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid, Workers: 2, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		p.SubscribeFixes(func(Fix) { fused[i].Add(1) })
		p.Start()
		waits[i] = drainFixes(p)
		ps[i] = p
	}
	for _, rep := range reports {
		for _, p := range ps {
			if err := p.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fused[0].Load() < int64(outcomes) || fused[1].Load() < int64(outcomes) {
		if time.Now().After(deadline) {
			t.Fatalf("fused %d and %d of %d sequences", fused[0].Load(), fused[1].Load(), outcomes)
		}
		time.Sleep(time.Millisecond)
	}

	totals := func(st Stats) map[string]float64 {
		return map[string]float64{
			metricReportsRejected:                       float64(st.ReportsRejected),
			metricSnapshots:                             float64(st.SnapshotsIn),
			metricSnapshotsDropped:                      float64(st.SnapshotsDropped),
			metricLateReports:                           float64(st.LateReports),
			metricSpectra + `{result="ok"}`:             float64(st.SpectraComputed),
			metricSpectra + `{result="failed"}`:         float64(st.SpectraFailed),
			metricSequences + `{outcome="assembled"}`:   float64(st.SequencesAssembled),
			metricSequences + `{outcome="evicted"}`:     float64(st.SequencesEvicted),
			metricFixes + `{result="fix"}`:              float64(st.Fixes - st.DegradedFixes),
			metricFixes + `{result="miss"}`:             float64(st.Misses),
			obs.SpanFamily + `_count{stage="spectrum"}`: float64(st.ComputeLatency.Count),
			obs.SpanFamily + `_count{stage="fuse"}`:     float64(st.FuseLatency.Count),
		}
	}
	want := totals(ps[0].Stats())
	for id, v := range totals(ps[1].Stats()) {
		want[id] += v
	}
	check := func(when string) {
		t.Helper()
		s := reg.Snapshot()
		for id, w := range want {
			if got, ok := s[id]; !ok || got != w {
				t.Errorf("%s: %s = %v (present %v), want %v", when, id, got, ok, w)
			}
		}
		// A stage digest read through a registry handle, as a benchmark
		// harness reads it, covers both pipelines too.
		spectrum := reg.HistogramVec(obs.SpanFamily, "", stats.LatencyBounds(), "stage").With(stageSpectrum).Summary()
		if w := want[obs.SpanFamily+`_count{stage="spectrum"}`]; float64(spectrum.Count) != w {
			t.Errorf("%s: spectrum digest count = %d, want %v", when, spectrum.Count, w)
		}
	}
	check("both running")
	ps[0].Drain()
	waits[0]()
	check("after one drained")
	ps[1].Drain()
	waits[1]()
	check("after both drained")
}

// TestReleaseOnTeardown: a drained pipeline, and a closed one that was
// never started, drop their gauge funcs from the registry (each left
// something for its gauge to read) and keep their counts in it.
func TestReleaseOnTeardown(t *testing.T) {
	cfg, sc := testConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	reader := sc.Readers[0].ID

	never, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := never.Ingest(taglessReport("ghost", 1)); err == nil {
		t.Fatal("unknown reader accepted")
	}
	if err := never.Ingest(fakeReport(reader, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()[metricQueueDepth]; got != 1 {
		t.Fatalf("queue depth = %v before Close, want 1", got)
	}
	never.Close()

	// Two baseline rounds, then an online round only this reader
	// reports: its sequence stays mid-assembly through the drain.
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	for seq := uint32(1); seq <= 3; seq++ {
		if err := p.Ingest(taglessReport(reader, seq)); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	wait()
	if st := p.Stats(); st.PendingSequences != 1 {
		t.Fatalf("pending sequences after drain = %d, want 1", st.PendingSequences)
	}

	s := reg.Snapshot()
	for _, id := range []string{metricQueueDepth, metricPendingSeqs} {
		if got, ok := s[id]; !ok || got != 0 {
			t.Errorf("%s = %v (present %v) after teardown, want 0", id, got, ok)
		}
	}
	if got := s[metricReportsRejected]; got != 1 {
		t.Errorf("rejected total = %v after release, want 1", got)
	}
	if got := s[metricReports+`{reader="`+reader+`"}`]; got != 4 {
		t.Errorf("reports total = %v after release, want 4", got)
	}
}

// TestRunJobUntracedAllocs pins the untraced spectrum path: per tag it
// may allocate only the spectra map key, never a trace-only string.
func TestRunJobUntracedAllocs(t *testing.T) {
	cfg, sc := testConfig(t)
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := &pmusic.Spectrum{}
	p.compute = func([][]complex128, *rf.Array, pmusic.Options) (*pmusic.Spectrum, error) {
		return sp, nil
	}
	reader := sc.Readers[0].ID
	const tags = 8
	j := job{reader: reader, arr: cfg.Arrays[reader], seq: 1, tags: fakeReport(reader, 1, tags).Reports, enq: time.Now()}
	ws := map[*rf.Array]*pmusic.Workspace{}
	allocs := testing.AllocsPerRun(100, func() { p.runJob(ws, j) })
	// The report, its spectra map (header and table), and one key per
	// tag.
	if limit := float64(tags + 3); allocs > limit {
		t.Fatalf("untraced runJob: %v allocs for %d tags, want <= %v", allocs, tags, limit)
	}
}
