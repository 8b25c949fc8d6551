package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/sim"
)

const (
	// liveEnv is the deployment the live workload drives.
	liveEnv = "site-a"
	// liveRate is the live workload's fixed send rate in rounds per
	// second — far below capacity, so latency is the critical path,
	// not queueing.
	liveRate = 50
	// livePool is how many target rounds the live pool holds: a 20 s
	// window sends each once.
	livePool = 1000
	// nodeSetups is how many times a run sets up a node (or fleet) to
	// take the median setup time; the last one is measured.
	nodeSetups = 15
	// scrapeInterval is the gateway's shipped federation cadence.
	scrapeInterval = 5 * time.Second
)

// llrpFeed is the LLRP side of a node: the handler's per-message
// measurements for the benchmark's one connection. Messages arrive in
// send order on that connection, so the n-th handled message is the
// n-th sent.
type llrpFeed struct {
	env      *poolEnv
	baseline int // messages before the first target round
	traced   bool
	// split is the plan's traced-window start (unix nanos): only
	// rounds due from then on are sampled.
	split *atomic.Int64
	// sentAt[i] is message i's send start (unix nanos), i counted from
	// the first target round.
	sentAt []atomic.Int64

	mu      sync.Mutex
	handled int
	frame   dist // Conn.Send start → handler entry
	ingest  dist // fleet.Ingest call
	err     error
}

// handle is the node's LLRP handler: every report goes to fleet.Ingest.
func (l *llrpFeed) handle(n *node, msg llrp.Message) error {
	if msg.Type != llrp.MsgROAccessReport {
		return nil
	}
	entry := time.Now()
	err := n.fleet.Ingest(l.env.in.id, msg.Payload)
	done := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.handled - l.baseline
	l.handled++
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return nil // keep the connection: the failure is counted, not fatal
	}
	if i < 0 || !l.traced {
		return nil
	}
	readers := len(l.env.in.readers)
	k := i / readers
	if l.env.due[k].Load() < l.split.Load() {
		return nil
	}
	l.frame.add(float64(entry.UnixNano() - l.sentAt[i].Load()))
	l.ingest.addDur(done.Sub(entry))
	if i%readers == readers-1 {
		l.env.entryAt[k].Store(entry.UnixNano())
		l.env.ingestedAt[k].Store(done.UnixNano())
	}
	return nil
}

// scrapeLoop calls the gateway's federation scrape at the shipped
// cadence, timing each call, until stop is closed.
func scrapeLoop(n *node, stop <-chan struct{}, times *dist, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(scrapeInterval)
	defer tick.Stop()
	for {
		t0 := time.Now()
		n.gw.ScrapeOnce(context.Background())
		times.addDur(time.Since(t0))
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// runLive is the wire-to-watcher workload: one env on a cluster node,
// fed over one LLRP connection at a fixed low rate, watched in
// process at the hub and over SSE through the gateway.
func runLive(cfg config) (*outcome, error) {
	catalog, _, err := fleet.ReadConfigDir(replayConfigDir)
	if err != nil {
		return nil, err
	}
	ins, refs, err := generateAll(catalog, []string{liveEnv}, cfg.seed, livePool)
	if err != nil {
		return nil, err
	}
	in, ref := ins[0], refs[0]
	maxRounds := int(liveRate*(openWarmup+cfg.seconds).Seconds()) + 16
	env := newPoolEnv(in, ref, maxRounds, 2)
	readers := len(in.readers)
	feed := &llrpFeed{env: env, baseline: 2 * readers, traced: cfg.traced,
		sentAt: make([]atomic.Int64, maxRounds*readers)}
	o := newOutcome()

	var n *node
	var setups dist
	for i := 0; i < nodeSetups; i++ {
		if n != nil {
			n.close()
		}
		t0 := time.Now()
		n, err = startNode(filepath.Join(cfg.work, fmt.Sprintf("live-%d", i)),
			map[string]sim.Config{liveEnv: catalog[liveEnv]}, feed.handle)
		if err != nil {
			return nil, err
		}
		setups.addDur(time.Since(t0))
	}
	defer n.close()
	o.set("setup_s", setups.median()/float64(time.Second))

	h, _ := n.fleet.EnvHandle(liveEnv)
	fe, _ := n.fleet.Env(liveEnv)
	plan := &openPlan{envs: []*poolEnv{env}, rate: liveRate, seconds: cfg.seconds, traced: cfg.traced}
	feed.split = &plan.split
	samples := &traceSamples{}
	if cfg.traced {
		env.consumers[0].onReceive = tracedReceive(plan, env, h.Tracer, samples)
	}
	stopHub := startWatchers(n.hub, []*poolEnv{env})
	sseCtx, sseCancel := context.WithCancel(context.Background())
	var sseWG sync.WaitGroup
	var sseErr error
	client := &api.Client{BaseURL: n.gwURL, HTTPClient: n.client}
	sseWG.Add(1)
	go func() {
		defer sseWG.Done()
		err := client.WatchPositions(sseCtx, liveEnv, func(_ []byte, p api.Position) error {
			env.consumers[1].recordPosition(p, time.Now())
			return nil
		})
		if err != nil && sseCtx.Err() == nil {
			sseErr = err
		}
	}()
	stopSSE := func() { sseCancel(); sseWG.Wait() }
	if err := n.waitWatchers(2, 10*time.Second); err != nil {
		stopSSE()
		stopHub()
		return nil, err
	}

	conn, err := llrp.Dial(context.Background(), n.llrpAddr)
	if err != nil {
		stopSSE()
		stopHub()
		return nil, err
	}
	scrapeStop := make(chan struct{})
	var scrapes dist
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go scrapeLoop(n, scrapeStop, &scrapes, &scrapeWG)
	stop := func() {
		_ = conn.Close()
		close(scrapeStop)
		scrapeWG.Wait()
		stopSSE()
		stopHub()
	}

	for r := 0; r < 2; r++ {
		for k := range in.readers {
			if _, err := conn.Send(llrp.MsgROAccessReport, in.payload(r, k)); err != nil {
				stop()
				return nil, err
			}
		}
	}
	if err := waitBaselines(fe, readers); err != nil {
		stop()
		return nil, err
	}

	plan.send = func(e *poolEnv, k, r int, payload []byte) error {
		now := time.Now().UnixNano()
		feed.sentAt[k*readers+r].Store(now)
		if r == readers-1 {
			e.sendAt[k].Store(now)
		}
		_, err := conn.Send(llrp.MsgROAccessReport, payload)
		return err
	}
	gauges := &gaugeMax{reg: n.reg}
	var sampler func()
	if cfg.traced {
		sampler = gauges.sample
	}
	var spectra0, spectra float64
	var window0 time.Time
	onWindow := func(start bool) {
		v := float64(fe.Pipeline().Stats().SpectraComputed)
		if start {
			spectra0, window0 = v, time.Now()
		} else {
			spectra = (v - spectra0) / time.Since(window0).Seconds()
		}
	}
	res, runErr := plan.run(sampler, onWindow)
	stop()
	if runErr != nil {
		return nil, runErr
	}
	if sseErr != nil {
		return nil, fmt.Errorf("gateway SSE watcher: %w", sseErr)
	}
	feed.mu.Lock()
	defer feed.mu.Unlock()
	if feed.err != nil {
		o.problem("fleet.Ingest: %v", feed.err)
	}
	from := res.warmEnd
	if cfg.traced {
		from = res.split
	}
	plan.report(o, res, from, spectra)
	if !cfg.traced {
		return o, nil
	}

	plan.reportTraced(o, res)
	gauges.set(o)
	setPipelineFromObs(o, n.reg)
	setTail(o, "llrp.frame_us_p50", "", &feed.frame, time.Microsecond)
	setTail(o, "fleet.ingest_us_p50", "fleet.ingest_us_p99", &feed.ingest, time.Microsecond)
	setServing(o, []*poolEnv{env}, res.split)
	setTail(o, "pipeline.queue_wait_us_p50", "pipeline.queue_wait_us_p99", &samples.queueWait, time.Microsecond)
	o.set("cluster.scrape_ms_p50", scrapes.median()/float64(time.Millisecond))
	o.set("serve.resyncs", float64(env.consumers[0].resyncs))
	o.set("ledger.unexplained_share", criticalPathLedger("live", timelines([]*poolEnv{env}, res.split, res.end)))
	if err := microProbe(o, cfg, []*envInputs{in}, []string{filepath.Join(cfg.work, fmt.Sprintf("live-%d", nodeSetups-1), liveEnv)}); err != nil {
		return nil, err
	}
	if err := scalingProbe(o, in, ref); err != nil {
		return nil, err
	}
	return o, nil
}

// waitBaselines waits until an env's pipeline has confirmed every
// reader's baseline.
func waitBaselines(e *fleet.Env, readers int) error {
	deadline := time.Now().Add(30 * time.Second)
	for e.Pipeline().Stats().BaselinesConfirmed < uint64(readers) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: baselines not confirmed", e.ID())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
