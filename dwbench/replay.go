package main

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/replay"
	"dwatch/internal/tracing"
	"dwatch/internal/wal"
)

const (
	// replayPoolRounds is how many target rounds each env's capture
	// holds.
	replayPoolRounds = 600
	// replaySetups is how many times a run sets up the replay to take
	// the median setup time.
	replaySetups = 51
	// minReplayPasses is the fewest measured passes a run makes, however
	// short its window.
	minReplayPasses = 3
)

// timedSource wraps a capture's WAL source for the closed loop: it
// stamps when each round's first record was read — the round's due
// time — and accounts the time spent inside Next (WAL read) and
// between calls (decode, pipeline.Ingest and any backpressure).
type timedSource struct {
	replay.Source
	readers int
	records int
	// roundAt[r] is when round r's first record was read (unix nanos);
	// read by the fix consumer goroutine.
	roundAt []atomic.Int64

	first, last time.Time
	read, busy  time.Duration
	held        dist // per record: time the feeder spent on it after Next
}

func (s *timedSource) Next() (replay.Item, error) {
	t0 := time.Now()
	if !s.last.IsZero() {
		gap := t0.Sub(s.last)
		s.busy += gap
		s.held.addDur(gap)
	} else {
		s.first = t0
	}
	it, err := s.Source.Next()
	s.last = time.Now()
	s.read += s.last.Sub(t0)
	if err == nil {
		if s.records%s.readers == 0 {
			s.roundAt[s.records/s.readers].Store(s.last.UnixNano())
		}
		s.records++
	}
	return it, err
}

// writeCapture writes an environment's rounds, in order, as a WAL the
// replay workload reads back.
func writeCapture(dir string, in *envInputs) error {
	w, err := wal.Open(dir)
	if err != nil {
		return err
	}
	for r := range in.rounds {
		for k := range in.readers {
			if _, err := w.Append(time.Now(), llrp.MsgROAccessReport, in.payload(r, k)); err != nil {
				w.Close()
				return err
			}
		}
	}
	return w.Close()
}

// replayPass is one env's replay within a pass.
type replayPass struct {
	spectra uint64
	wall    time.Duration // replay.Run's own wall time
	runWall time.Duration // around the replay.Run call
	src     *timedSource
	lat     []float64 // per delivered fix: round read → OnFix (ns)
	// traced is the critical path of every traced fix.
	traced []timeline
}

// replayEnv replays one env's capture through replay.Run, checking
// every fix against the reference and recording accuracy into acc
// when it is non-nil. Traced passes attach obs and a tracer to the
// pipeline and feed trace samples.
func replayEnv(o *outcome, in *envInputs, ref *reference, dir string, reg *obs.Registry, samples *traceSamples, acc *accuracy) (*replayPass, error) {
	src, err := replay.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ts := &timedSource{Source: src, readers: len(in.readers), roundAt: make([]atomic.Int64, len(in.rounds))}
	n := in.targetRounds()
	delivered := make([]bool, n)
	matched := make([]bool, n)
	pass := &replayPass{src: ts}
	var pos [][2]float64
	if acc != nil {
		pos = make([][2]float64, n)
	}
	var unexpected int
	last := in.readers[len(in.readers)-1]
	opts := replay.Options{}
	var tr *tracing.Tracer
	if reg != nil {
		tr = tracing.New(tracing.WithObs(reg))
		opts.Pipeline = []pipeline.Option{pipeline.WithObs(reg), pipeline.WithTracer(tr)}
	}
	// OnFix runs on replay.Run's fix consumer, which Run waits for
	// before returning.
	opts.OnFix = func(f pipeline.Fix) {
		now := time.Now().UnixNano()
		k := int(f.Seq) - firstTargetSeq
		if k < 0 || k >= n || delivered[k] {
			unexpected++
			return
		}
		delivered[k] = true
		matched[k] = ref.fixes[k].same(fixOf(f))
		pass.lat = append(pass.lat, float64(now-ts.roundAt[f.Seq-1].Load()))
		if pos != nil {
			pos[k] = [2]float64{f.Pos.X, f.Pos.Y}
		}
		if tr != nil {
			if d, ok := tr.Get(f.TraceID); ok {
				if path, ok := samples.add(d, last); ok {
					due := ts.roundAt[f.Seq-1].Load()
					pass.traced = append(pass.traced, timeline{
						due: due, send: path.ingestStart.UnixNano(), entry: path.ingestStart.UnixNano(),
						ingested: path.ingestEnd.UnixNano(), path: path, final: now,
					})
				}
			}
		}
	}
	t0 := time.Now()
	sum, err := replay.Run(ts, in.dep, opts)
	pass.runWall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if sum.SourceError != "" || sum.BadReports > 0 || sum.SkippedUnknown > 0 {
		o.problem("%s: replay source error %q, %d bad and %d unknown reports", in.id, sum.SourceError, sum.BadReports, sum.SkippedUnknown)
	}
	if unexpected > 0 {
		o.problem("%s: %d unexpected fixes", in.id, unexpected)
	}
	o.attempted += n
	for k := 0; k < n; k++ {
		if delivered[k] != ref.fixes[k].ok || delivered[k] && !matched[k] {
			o.failed++
		}
		if acc != nil {
			acc.add(in.truth[k], delivered[k], pos[k][0], pos[k][1])
		}
	}
	pass.spectra = sum.Spectra
	pass.wall = time.Duration(sum.WallSeconds * float64(time.Second))
	return pass, nil
}

// runReplay is the capacity workload: a seeded WAL capture of the two
// pinned deployments replayed unthrottled through replay.Run with a
// bare default pipeline, pass after pass.
func runReplay(cfg config) (*outcome, error) {
	catalog, ids, err := fleet.ReadConfigDir(replayConfigDir)
	if err != nil {
		return nil, err
	}
	ins, refs, err := generateAll(catalog, ids, cfg.seed, replayPoolRounds)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for i, id := range ids {
		dir := filepath.Join(cfg.work, "capture", id)
		if err := writeCapture(dir, ins[i]); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
	}
	o := newOutcome()

	// Set-up: deployment build, capture open, pipeline construction and
	// start — everything before the first report can be ingested.
	var setups dist
	for s := 0; s < replaySetups; s++ {
		t0 := time.Now()
		var ps []*pipeline.Pipeline
		var srcs []*replay.WALSource
		for i, id := range ids {
			_, dep, err := buildDeployment(id, catalog[id])
			if err != nil {
				return nil, err
			}
			src, err := replay.OpenWAL(dirs[i])
			if err != nil {
				return nil, err
			}
			p, err := pipeline.New(dep)
			if err != nil {
				src.Close()
				return nil, err
			}
			p.Start()
			ps, srcs = append(ps, p), append(srcs, src)
		}
		setups.addDur(time.Since(t0))
		for i := range ps {
			ps[i].Drain()
			srcs[i].Close()
		}
	}
	o.set("setup_s", setups.median()/float64(time.Second))

	var reg *obs.Registry
	gauges := &gaugeMax{}
	samples := &traceSamples{}
	var sampler func()
	if cfg.traced {
		reg = obs.NewRegistry()
		gauges.reg = reg
		sampler = gauges.sample
	}
	// One unmeasured pass warms caches and the heap.
	for i, in := range ins {
		if _, err := replayEnv(o, in, refs[i], dirs[i], nil, nil, nil); err != nil {
			return nil, err
		}
	}

	type passTotals struct {
		spectra     uint64
		wall, cpu   time.Duration
		traced      bool
		envs        []*replayPass
		rounds, rec int
	}
	var passes []passTotals
	var acc accuracy
	win := startWindow(sampler)
	deadline := time.Now().Add(cfg.seconds)
	for p := 0; p < minReplayPasses || time.Now().Before(deadline); p++ {
		// Traced runs alternate plain and traced passes: the tracing
		// overhead is traced minus untraced.
		t := passTotals{traced: cfg.traced && p%2 == 1}
		cpu0 := processCPU()
		for i, in := range ins {
			var a *accuracy
			if p == 0 {
				a = &acc
			}
			var r *obs.Registry
			if t.traced {
				r = reg
			}
			pr, err := replayEnv(o, in, refs[i], dirs[i], r, samples, a)
			if err != nil {
				return nil, err
			}
			t.spectra += pr.spectra
			t.wall += pr.wall
			t.rounds += len(in.rounds)
			t.rec += pr.src.records
			t.envs = append(t.envs, pr)
		}
		t.cpu = processCPU() - cpu0
		passes = append(passes, t)
	}
	w := win.end()

	var rate []float64
	var lat dist
	var blocks []*dist
	var rounds, records int
	for _, p := range passes {
		rounds += p.rounds
		records += p.rec
		if p.traced {
			continue
		}
		rate = append(rate, float64(p.spectra)/p.wall.Seconds())
		block := &dist{}
		for _, e := range p.envs {
			block.v = append(block.v, e.lat...)
		}
		lat.merge(block)
		blocks = append(blocks, block)
	}
	o.set("spectra_per_s", medianOf(rate))
	setLatency(o, &lat, blocks)
	o.set("cpu_ms_per_round", ms(w.cpu)/float64(rounds))
	o.set("heap_peak_mib", w.heapPeakMiB)
	o.set("loc_error_p50_m", acc.medianError())
	o.set("fix_coverage", acc.coverage())
	if !cfg.traced {
		return o, nil
	}

	// Every pass replays the same rounds, so CPU per pass compares.
	var tracedCPU, plainCPU, read, busy, wall time.Duration
	var tracedPasses, plainPasses, tracedRecords int
	var held dist
	for _, p := range passes {
		if !p.traced {
			plainCPU += p.cpu
			plainPasses++
			continue
		}
		tracedCPU += p.cpu
		tracedPasses++
		tracedRecords += p.rec
		for _, e := range p.envs {
			read += e.src.read
			busy += e.src.busy
			wall += e.runWall
			held.merge(&e.src.held)
		}
	}
	plain := ms(plainCPU) / float64(plainPasses)
	o.set("trace.overhead_pct", 100*(ms(tracedCPU)/float64(tracedPasses)-plain)/plain)
	setWindow(o, w, records)
	setPipelineFromObs(o, reg)
	gauges.set(o)
	setTail(o, "pipeline.queue_wait_us_p50", "pipeline.queue_wait_us_p99", &samples.queueWait, time.Microsecond)
	o.set("feeder.busy_share", share(busy, wall))
	lag, _ := held.in(time.Millisecond).tail()
	o.set("loadgen.lag_p99_ms", lag)
	o.set("loadgen.rounds_sent", float64(rounds))
	if err := microProbe(o, cfg, ins, nil); err != nil {
		return nil, err
	}
	o.set("wal.read_us_per_record", us(read)/float64(tracedRecords))
	if err := scalingProbe(o, ins[0], refs[0]); err != nil {
		return nil, err
	}
	o.set("pipeline.scaling_efficiency", medianOf(rate)/o.values["pipeline.single_worker_spectra_per_s"]/float64(runtime.GOMAXPROCS(0)))

	var paths []timeline
	for _, p := range passes {
		for _, e := range p.envs {
			paths = append(paths, e.traced...)
		}
	}
	o.set("ledger.unexplained_share", criticalPathLedger("replay", paths))
	return o, servingProbe(o, cfg, catalog, ins[0], refs[0], map[string]bool{
		"llrp.frame_us_p50": true, "fleet.ingest_us_p50": true, "fleet.ingest_us_p99": true,
		"serve.publish_to_watch_us_p50": true, "serve.publish_to_watch_us_p99": true,
		"serve.resyncs": true, "cluster.relay_us_p50": true, "cluster.relay_us_p99": true,
		"cluster.scrape_ms_p50": true,
	})
}
