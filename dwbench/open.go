package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/serve"
	"dwatch/internal/tracing"
)

// latencyBlocks is how many equal spans of the measured window an
// open-loop run computes latency percentiles over; it reports their
// median, so a burst of host noise moves one block, not the figure.
const latencyBlocks = 5

// openWarmup is sent before the measured window of an open-loop run
// and excluded from its timings (its rounds are still checked).
const openWarmup = 2 * time.Second

// deliveryTimeout bounds how long a run waits, after its last send,
// for every expected fix to reach its watchers.
const deliveryTimeout = 20 * time.Second

// receipt is one fix as a watcher received it.
type receipt struct {
	at, published int64 // unix nanos: receipt, and the Position.Time stamp
	x, y          float64
	ok            bool // equals the reference bit for bit
	traceID       string
}

// consumer records the fixes one watcher receives, by target index
// (k = seq − firstTargetSeq). recs is written only by the watcher's
// goroutine and read after it has exited.
type consumer struct {
	env  *poolEnv
	recs []receipt
	// got counts frames recorded for expected rounds; unexpected counts
	// duplicates, frames for unknown sequences and undecodable frames.
	got, unexpected atomic.Int64
	// resyncs is the hub watcher's resync count, set when it exits.
	resyncs uint64
	// onReceive, when set, runs on the watcher goroutine after each
	// recorded frame (traced runs resolve the fix's trace there).
	onReceive func(k int, p api.Position, at time.Time)
}

func (c *consumer) record(raw []byte, at time.Time) {
	var p api.Position
	if err := json.Unmarshal(raw, &p); err != nil {
		c.unexpected.Add(1)
		return
	}
	c.recordPosition(p, at)
}

func (c *consumer) recordPosition(p api.Position, at time.Time) {
	k := int(p.Seq) - firstTargetSeq
	if k < 0 || k >= len(c.recs) || c.recs[k].at != 0 {
		c.unexpected.Add(1)
		return
	}
	c.recs[k] = receipt{
		at: at.UnixNano(), published: p.Time.UnixNano(), x: p.X, y: p.Y,
		ok:      c.env.refAt(k).same(positionOf(p)),
		traceID: p.TraceID,
	}
	c.got.Add(1)
	if c.onReceive != nil {
		c.onReceive(k, p, at)
	}
}

// watchHub feeds a hub watcher's frames to c until ctx ends.
func watchHub(ctx context.Context, w *serve.Watcher, c *consumer) {
	for {
		frames, err := w.Next(ctx)
		if err != nil {
			return
		}
		at := time.Now()
		for _, raw := range frames {
			c.record(raw, at)
		}
	}
}

// poolEnv is one environment of an open-loop run: its round pool and
// reference, the due time of every target round sent, and the
// watchers' receipts.
type poolEnv struct {
	in  *envInputs
	ref *reference
	// due[k] is target round k's due time (unix nanos).
	due []atomic.Int64
	// sent counts target rounds sent.
	sent atomic.Int64
	// consumers are this env's watchers; the last one is the
	// workload's delivery point for end-to-end latency.
	consumers []*consumer

	// Traced runs: per target round, the last report's send start,
	// handler entry (LLRP only) and ingest return, and the pipeline
	// timeline of that report from the trace.
	sendAt, entryAt, ingestedAt []atomic.Int64
	path                        []pipelinePath
	pathOK                      []bool
}

func newPoolEnv(in *envInputs, ref *reference, maxRounds int, watchers int) *poolEnv {
	e := &poolEnv{
		in: in, ref: ref,
		due:        make([]atomic.Int64, maxRounds),
		sendAt:     make([]atomic.Int64, maxRounds),
		entryAt:    make([]atomic.Int64, maxRounds),
		ingestedAt: make([]atomic.Int64, maxRounds),
		path:       make([]pipelinePath, maxRounds),
		pathOK:     make([]bool, maxRounds),
	}
	for i := 0; i < watchers; i++ {
		e.consumers = append(e.consumers, &consumer{env: e, recs: make([]receipt, maxRounds)})
	}
	return e
}

// pool maps target round k onto the pool: the pool's target rounds are
// replayed cyclically as new sequences.
func (e *poolEnv) pool(k int) int { return k % e.in.targetRounds() }

func (e *poolEnv) refAt(k int) refFix { return e.ref.fixes[e.pool(k)] }

// payload returns reader r's report for target round k, renumbered to
// sequence firstTargetSeq+k.
func (e *poolEnv) payload(k, r int) []byte {
	return e.in.payloadWithSeq(2+e.pool(k), r, uint32(firstTargetSeq+k))
}

// expected counts the fixes the reference predicts for the rounds sent.
func (e *poolEnv) expected() int64 {
	var n int64
	for k := 0; k < int(e.sent.Load()); k++ {
		if e.refAt(k).ok {
			n++
		}
	}
	return n
}

// waitDelivered waits until every watcher of every env has received
// every expected fix, or the timeout passes.
func waitDelivered(envs []*poolEnv, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, e := range envs {
		want := e.expected()
		for _, c := range e.consumers {
			for c.got.Load() < want {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: %d of %d fixes delivered", e.in.id, c.got.Load(), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

// check counts target rounds sent and failed: a round fails when a
// watcher lacks the fix the reference has, received one the reference
// does not have, or received one that differs from it.
func (e *poolEnv) check(o *outcome) {
	n := int(e.sent.Load())
	o.attempted += n
	for k := 0; k < n; k++ {
		want := e.refAt(k).ok
		for _, c := range e.consumers {
			r := c.recs[k]
			if (r.at != 0) != want || want && !r.ok {
				o.failed++
				break
			}
		}
	}
	for _, c := range e.consumers {
		if u := c.unexpected.Load(); u > 0 {
			o.problem("%s: %d unexpected frames", e.in.id, u)
		}
	}
}

// openStats aggregates an open-loop run's measured rounds.
type openStats struct {
	latency dist // due → delivery at the last consumer
	acc     accuracy
}

// measured folds the target rounds due in [from, to) into s.
func (e *poolEnv) measured(s *openStats, from, to time.Time) {
	last := e.consumers[len(e.consumers)-1]
	for k := 0; k < int(e.sent.Load()); k++ {
		due := e.due[k].Load()
		if due < from.UnixNano() || due >= to.UnixNano() {
			continue
		}
		r := last.recs[k]
		s.acc.add(e.in.truth[e.pool(k)], r.at != 0, r.x, r.y)
		if r.at != 0 {
			s.latency.add(float64(r.at - due))
		}
	}
}

// openPlan is an open-loop run: rounds go out round-robin over the
// environments at an aggregate rate, each reader's report through
// send, for a warm-up and then the measured window.
type openPlan struct {
	envs    []*poolEnv
	rate    float64 // aggregate target rounds per second
	seconds time.Duration
	traced  bool
	// send delivers reader r's report of env e's target round k.
	send func(e *poolEnv, k, r int, payload []byte) error
	// busy accumulates time spent inside send during the window.
	busy time.Duration
	lag  dist
	// split is where a traced window starts recording (unix nanos),
	// published before the first round is sent.
	split atomic.Int64
	// tracedReports counts reports sent after split.
	tracedReports int
}

// openResult is what run measured.
type openResult struct {
	warmEnd, split, end time.Time
	// windows are the process windows: in traced runs the untraced
	// one before split and the traced one after it.
	windows []windowStats
	// windowRounds counts the rounds due in each window.
	windowRounds []int
	wall         time.Duration
}

// run executes the schedule, then waits for every expected fix.
// onWindow is called at the measured window's start (with true) and
// end (with false) so callers can snapshot their counters.
func (p *openPlan) run(sampler func(), onWindow func(start bool)) (*openResult, error) {
	interval := time.Duration(float64(time.Second) / p.rate)
	sch := realClock(time.Now().Add(10*time.Millisecond), interval)
	res := &openResult{warmEnd: sch.start.Add(openWarmup)}
	res.end = res.warmEnd.Add(p.seconds)
	res.split = res.end
	if p.traced {
		// The first third of a traced window runs without the
		// benchmark's own span recording: the tracing overhead is
		// traced minus untraced.
		res.split = res.warmEnd.Add(p.seconds / 3)
	}
	p.split.Store(res.split.UnixNano())
	var win *procWindow
	var sendErr error
	nEnv := len(p.envs)
	_, err := sch.run(res.end, func(i int, due time.Time) error {
		if win == nil && !due.Before(res.warmEnd) {
			onWindow(true)
			win = startWindow(sampler)
		}
		if p.traced && len(res.windows) == 0 && !due.Before(res.split) {
			res.windows = append(res.windows, win.end())
			win = startWindow(sampler)
		}
		e, k := p.envs[i%nEnv], i/nEnv
		if k >= len(e.due) {
			return fmt.Errorf("%s: round %d beyond the preallocated %d", e.in.id, k, len(e.due))
		}
		e.due[k].Store(due.UnixNano())
		t0 := time.Now()
		for r := range e.in.readers {
			if err := p.send(e, k, r, e.payload(k, r)); err != nil {
				return err
			}
		}
		if win != nil {
			p.busy += time.Since(t0)
		}
		if !due.Before(res.split) {
			p.tracedReports += len(e.in.readers)
		}
		e.sent.Store(int64(k + 1))
		return nil
	}, func(due time.Time, late time.Duration) {
		if !due.Before(res.warmEnd) {
			p.lag.addDur(late)
		}
	})
	if err != nil {
		sendErr = err
	}
	onWindow(false)
	if win == nil {
		return nil, fmt.Errorf("no round reached the measured window")
	}
	if sendErr == nil {
		sendErr = waitDelivered(p.envs, deliveryTimeout)
	}
	res.windows = append(res.windows, win.end())
	res.wall = res.end.Sub(res.warmEnd)
	bounds := []time.Time{res.warmEnd, res.split, res.end}
	if !p.traced {
		bounds = []time.Time{res.warmEnd, res.end}
	}
	for w := 0; w+1 < len(bounds); w++ {
		var s openStats
		for _, e := range p.envs {
			e.measured(&s, bounds[w], bounds[w+1])
		}
		res.windowRounds = append(res.windowRounds, s.acc.targets)
	}
	return res, sendErr
}

// report sets the end-to-end metrics of an open-loop run over the
// rounds due in [from, end) and checks every round sent.
func (p *openPlan) report(o *outcome, res *openResult, from time.Time, spectra float64) {
	var s openStats
	for _, e := range p.envs {
		e.measured(&s, from, res.end)
		e.check(o)
	}
	var blocks []*dist
	span := res.end.Sub(from) / latencyBlocks
	for b := 0; b < latencyBlocks; b++ {
		var bs openStats
		start := from.Add(time.Duration(b) * span)
		for _, e := range p.envs {
			e.measured(&bs, start, start.Add(span))
		}
		blocks = append(blocks, &bs.latency)
	}
	setLatency(o, &s.latency, blocks)
	lag := p.lag.in(time.Millisecond)
	t, q := lag.tail()
	fmt.Printf("loadgen: %d rounds in the window, lag p50 %.3f ms, p%g %.3f ms\n", lag.n(), lag.median(), q*100, t)
	o.set("loc_error_p50_m", s.acc.medianError())
	o.set("fix_coverage", s.acc.coverage())
	o.set("spectra_per_s", spectra)
	w := res.windows[len(res.windows)-1]
	if rounds := res.windowRounds[len(res.windowRounds)-1]; rounds > 0 {
		o.set("cpu_ms_per_round", ms(w.cpu)/float64(rounds))
	}
	o.set("heap_peak_mib", w.heapPeakMiB)
}

// reportTraced sets the per-layer figures every open-loop run has.
func (p *openPlan) reportTraced(o *outcome, res *openResult) {
	// Per round, not per fix: coverage differs between stretches of
	// the trajectory, and misses cost CPU too.
	cpuPerRound := func(i int) float64 { return ms(res.windows[i].cpu) / float64(max(1, res.windowRounds[i])) }
	o.set("trace.overhead_pct", 100*(cpuPerRound(1)-cpuPerRound(0))/cpuPerRound(0))
	setWindow(o, res.windows[1], p.tracedReports)
	o.set("feeder.busy_share", share(p.busy, res.wall))
	lag, _ := p.lag.in(time.Millisecond).tail()
	o.set("loadgen.lag_p99_ms", lag)
	var sent int64
	for _, e := range p.envs {
		sent += e.sent.Load()
	}
	o.set("loadgen.rounds_sent", float64(sent))
}

// tracedReceive returns the hook that resolves a delivered fix's
// trace into the env's pipeline timeline and the queue-wait sample,
// for rounds due at or after the plan's split.
func tracedReceive(p *openPlan, e *poolEnv, tr *tracing.Tracer, samples *traceSamples) func(int, api.Position, time.Time) {
	last := e.in.readers[len(e.in.readers)-1]
	return func(k int, pos api.Position, _ time.Time) {
		if e.due[k].Load() < p.split.Load() {
			return
		}
		if d, ok := tr.Get(pos.TraceID); ok {
			e.path[k], e.pathOK[k] = samples.add(d, last)
		}
	}
}

// setServing reports the serving layers' per-fix times over the
// rounds due at or after from: hub publish → in-process watcher, and
// where the env has a second watcher, hub watcher → gateway SSE.
func setServing(o *outcome, envs []*poolEnv, from time.Time) {
	var publish, relay dist
	for _, e := range envs {
		for k := 0; k < int(e.sent.Load()); k++ {
			if e.due[k].Load() < from.UnixNano() {
				continue
			}
			hub := e.consumers[0].recs[k]
			if hub.at == 0 {
				continue
			}
			publish.add(float64(hub.at - hub.published))
			if len(e.consumers) > 1 {
				if sse := e.consumers[1].recs[k]; sse.at != 0 {
					relay.add(float64(sse.at - hub.at))
				}
			}
		}
	}
	setTail(o, "serve.publish_to_watch_us_p50", "serve.publish_to_watch_us_p99", &publish, time.Microsecond)
	if relay.n() > 0 {
		setTail(o, "cluster.relay_us_p50", "cluster.relay_us_p99", &relay, time.Microsecond)
	}
}

// timelines collects the traced rounds' critical paths: rounds due in
// [from, to) whose fix reached every watcher and whose trace resolved.
func timelines(envs []*poolEnv, from, to time.Time) []timeline {
	var out []timeline
	for _, e := range envs {
		for k := 0; k < int(e.sent.Load()); k++ {
			due := e.due[k].Load()
			if due < from.UnixNano() || due >= to.UnixNano() || !e.pathOK[k] {
				continue
			}
			hub := e.consumers[0].recs[k]
			final := e.consumers[len(e.consumers)-1].recs[k]
			if hub.at == 0 || final.at == 0 {
				continue
			}
			out = append(out, timeline{
				due: due, send: e.sendAt[k].Load(), entry: e.entryAt[k].Load(),
				ingested: e.ingestedAt[k].Load(), path: e.path[k],
				published: hub.published, hub: hub.at, final: final.at,
			})
		}
	}
	return out
}

// startWatchers attaches one hub watcher per env (the first consumer
// of each) and returns a stop function that ends them and waits.
func startWatchers(hub *serve.Hub, envs []*poolEnv) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, e := range envs {
		w := hub.Watch(e.in.id)
		wg.Add(1)
		go func(e *poolEnv, w *serve.Watcher) {
			defer wg.Done()
			defer w.Close()
			watchHub(ctx, w, e.consumers[0])
			e.consumers[0].resyncs = w.Resyncs()
		}(e, w)
	}
	return func() { cancel(); wg.Wait() }
}
