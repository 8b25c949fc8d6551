package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/dwatch"
	"dwatch/internal/llrp"
	"dwatch/internal/pmusic"
	"dwatch/internal/replay"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/wal"
)

// Probes time single layers through their public calls on a sample of
// the workload's own inputs, one call at a time, after the measured
// window of a traced run. They stand in for layers the workload's own
// path does not pass through (see README.md for which is which).

// probeSamples is how many payloads a micro probe times.
const probeSamples = 200

// samplePayloads picks up to n target-round payloads spread over the
// environments and rounds.
func samplePayloads(ins []*envInputs, n int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		in := ins[i%len(ins)]
		j := i / len(ins)
		r := 2 + (j*7)%in.targetRounds()
		out = append(out, in.payload(r, j%len(in.readers)))
		if i > 100*n {
			break
		}
	}
	return out
}

// microProbe times LLRP decode, WAL append at the fleet's default
// fsync policy, WAL reads, and the P-MUSIC kernel over the workload's
// payloads, and reports the mean report size. walDirs are WALs the run
// wrote, read back record by record; with none the probe reads its
// own appends.
func microProbe(o *outcome, cfg config, ins []*envInputs, walDirs []string) error {
	payloads := samplePayloads(ins, probeSamples)
	var decode dist
	for _, p := range payloads {
		t0 := time.Now()
		if _, err := llrp.UnmarshalROAccessReport(p); err != nil {
			return err
		}
		decode.addDur(time.Since(t0))
	}
	setTail(o, "llrp.decode_us_p50", "", &decode, time.Microsecond)

	var bytes, reports float64
	for _, in := range ins {
		for r := range in.rounds {
			for k := range in.readers {
				bytes += float64(len(in.payload(r, k)))
				reports++
			}
		}
	}
	o.set("llrp.bytes_per_report", bytes/reports)

	dir := filepath.Join(cfg.work, "probe-wal")
	w, err := wal.Open(dir)
	if err != nil {
		return err
	}
	var appends dist
	for pass := 0; pass < 5; pass++ {
		for _, p := range payloads {
			t0 := time.Now()
			if _, err := w.Append(time.Now(), llrp.MsgROAccessReport, p); err != nil {
				w.Close()
				return err
			}
			appends.addDur(time.Since(t0))
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	setTail(o, "wal.append_us_p50", "wal.append_us_p99", &appends, time.Microsecond)
	if len(walDirs) == 0 {
		walDirs = []string{dir}
	}
	var read time.Duration
	var records int
	for _, d := range walDirs {
		src, err := replay.OpenWAL(d)
		if err != nil {
			return err
		}
		for {
			t0 := time.Now()
			_, err := src.Next()
			read += time.Since(t0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				src.Close()
				return err
			}
			records++
		}
		src.Close()
	}
	if records == 0 {
		return fmt.Errorf("wal read probe: no records")
	}
	o.set("wal.read_us_per_record", us(read)/float64(records))

	// The P-MUSIC kernel alone: one goroutine, one workspace per array,
	// the pipeline's default options.
	spaces := map[*rf.Array]*pmusic.Workspace{}
	var spectrum dist
	for i, p := range payloads[:min(len(payloads), 50)] {
		rep, err := llrp.UnmarshalROAccessReport(p)
		if err != nil {
			return err
		}
		arr := ins[i%len(ins)].dep.Arrays[rep.ReaderID]
		ws := spaces[arr]
		if ws == nil {
			if ws, err = pmusic.NewWorkspace(arr, pmusic.Options{}); err != nil {
				return err
			}
			spaces[arr] = ws
		}
		for _, tr := range rep.Reports {
			x, err := dwatch.RawSnapshotsToMatrix(tr.Snapshot)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := ws.Compute(x); err != nil {
				return err
			}
			spectrum.addDur(time.Since(t0))
		}
	}
	setTail(o, "pmusic.spectrum_us_p50", "", &spectrum, time.Microsecond)
	return nil
}

// scalingRounds is how many target rounds of the first env the
// scaling probe replays.
const scalingRounds = 300

// scalingProbe replays the first env's first rounds twice, alone on
// the host: once through the reference configuration (1 worker, 1
// shard) and once through a bare default pipeline, both checked
// against the reference. It reports the single-worker throughput and
// default ÷ single-worker throughput ÷ GOMAXPROCS.
func scalingProbe(o *outcome, in *envInputs, ref *reference) error {
	in, ref = in.prefix(ref, scalingRounds)
	single, err := buildReference(in)
	if err != nil {
		return err
	}
	def, err := replayPool(in)
	if err != nil {
		return err
	}
	for name, got := range map[string]*reference{"single-worker": single, "default": def} {
		if n := ref.diff(got); n > 0 {
			o.problem("%s: %s pipeline differs from the reference on %d rounds", in.id, name, n)
		}
	}
	rate := func(r *reference) float64 { return float64(r.spectra) / r.wall.Seconds() }
	o.set("pipeline.single_worker_spectra_per_s", rate(single))
	o.set("pipeline.scaling_efficiency", rate(def)/rate(single)/float64(runtime.GOMAXPROCS(0)))
	return nil
}

// servingRounds is how many rounds the serving probe sends, cycling
// the pool rounds that produce a fix: enough for a p90 by the
// percentile rule.
const servingRounds = 120

// servingProbe brings up a cluster node hosting every catalog env,
// sends in's rounds one at a time over LLRP (each once its previous
// fix reached the gateway watcher), and times LLRP framing,
// fleet.Ingest, hub publish → watch, the gateway relay and the
// federation scrape. set names which of those the workload reports
// from the probe; the rest it measures in its own run.
func servingProbe(o *outcome, cfg config, catalog map[string]sim.Config, in *envInputs, ref *reference, set map[string]bool) error {
	// Only rounds that produce a fix exercise the serving layers; the
	// probe sends those. A fix depends only on its round and the
	// baseline, so a subset of the pool keeps its reference.
	fixing := in.subset(ref, servingRounds)
	if fixing.targetRounds() == 0 {
		return fmt.Errorf("serving probe: no round of %s produces a fix", in.id)
	}
	readers := len(in.readers)
	env := newPoolEnv(fixing, &reference{fixes: fixing.refs}, servingRounds, 2)
	var split atomic.Int64 // zero: every target round is timed
	feed := &llrpFeed{env: env, baseline: 2 * readers, traced: true, split: &split,
		sentAt: make([]atomic.Int64, servingRounds*readers)}
	n, err := startNode(filepath.Join(cfg.work, "probe-node"), catalog, feed.handle)
	if err != nil {
		return err
	}
	defer n.close()
	stopHub := startWatchers(n.hub, []*poolEnv{env})
	defer stopHub()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	client := &api.Client{BaseURL: n.gwURL, HTTPClient: n.client}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = client.WatchPositions(ctx, in.id, func(_ []byte, p api.Position) error {
			env.consumers[1].recordPosition(p, time.Now())
			return nil
		}) // ends with ctx; a missing fix shows as a timeout below
	}()
	if err := n.waitWatchers(2, 10*time.Second); err != nil {
		return err
	}
	conn, err := llrp.Dial(ctx, n.llrpAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// One message in flight at a time: each waits until the handler has
	// taken it, so the timings are uncontended.
	sendOne := func(p []byte, i int) error {
		feed.mu.Lock()
		before := feed.handled
		feed.mu.Unlock()
		if i >= 0 {
			feed.sentAt[i].Store(time.Now().UnixNano())
		}
		if _, err := conn.Send(llrp.MsgROAccessReport, p); err != nil {
			return err
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Microsecond) {
			feed.mu.Lock()
			done, err := feed.handled > before, feed.err
			feed.mu.Unlock()
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("serving probe: report not handled")
			}
		}
	}
	for r := 0; r < 2; r++ {
		for k := 0; k < readers; k++ {
			if err := sendOne(in.payload(r, k), -1); err != nil {
				return err
			}
		}
	}
	fe, _ := n.fleet.Env(in.id)
	if err := waitBaselines(fe, readers); err != nil {
		return err
	}
	for k := 0; k < servingRounds; k++ {
		for r := 0; r < readers; r++ {
			if err := sendOne(env.payload(k, r), k*readers+r); err != nil {
				return err
			}
		}
		env.sent.Store(int64(k + 1))
		if err := waitDelivered([]*poolEnv{env}, 5*time.Second); err != nil {
			return err
		}
	}
	var scrapes dist
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		n.gw.ScrapeOnce(ctx)
		scrapes.addDur(time.Since(t0))
	}
	cancel()
	wg.Wait()
	stopHub()

	probe := newOutcome()
	env.check(probe)
	if probe.failed > 0 {
		o.problem("serving probe: %d of %d rounds differ from the reference", probe.failed, probe.attempted)
	}
	feed.mu.Lock()
	setTail(probe, "llrp.frame_us_p50", "", &feed.frame, time.Microsecond)
	setTail(probe, "fleet.ingest_us_p50", "fleet.ingest_us_p99", &feed.ingest, time.Microsecond)
	feed.mu.Unlock()
	setServing(probe, []*poolEnv{env}, time.Unix(0, 0))
	probe.set("cluster.scrape_ms_p50", scrapes.median()/float64(time.Millisecond))
	probe.set("serve.resyncs", float64(env.consumers[0].resyncs))
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := probe.values[name]
		if !ok {
			return fmt.Errorf("serving probe did not measure %s", name)
		}
		o.set(name, v)
	}
	o.problems = append(o.problems, probe.problems...)
	return nil
}
