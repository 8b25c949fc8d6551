package main

import (
	"fmt"
	"path/filepath"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/obs"
	"dwatch/internal/serve"
)

const (
	// fleetPool is how many target rounds each fleet-load env's pool
	// holds.
	fleetPool = 300
	// fleetRatePerEnv is each fleet-load env's send rate in rounds per
	// second; BENCHMARK.json states the aggregate.
	fleetRatePerEnv = 30
)

// runFleetLoad is the many-env workload: eight envs share one fleet
// with WAL, obs and hub as deployed, fed in process by one generator
// at a high aggregate rate and watched by one hub watcher per env.
func runFleetLoad(cfg config) (*outcome, error) {
	catalog, ids, err := fleet.ReadConfigDir(fleetConfigDir)
	if err != nil {
		return nil, err
	}
	maxRounds := int(fleetRatePerEnv*(openWarmup+cfg.seconds).Seconds()) + 16
	ins, refs, err := generateAll(catalog, ids, cfg.seed, fleetPool)
	if err != nil {
		return nil, err
	}
	var envs []*poolEnv
	for i := range ins {
		envs = append(envs, newPoolEnv(ins[i], refs[i], maxRounds, 1))
	}
	o := newOutcome()

	var f *fleet.Fleet
	var reg *obs.Registry
	var hub *serve.Hub
	var setups dist
	walRoot := ""
	for i := 0; i < nodeSetups; i++ {
		if f != nil {
			f.Close()
		}
		walRoot = filepath.Join(cfg.work, fmt.Sprintf("fleet-%d", i))
		t0 := time.Now()
		reg = obs.NewRegistry()
		hub = serve.NewHub(serve.WithHubObs(reg))
		f = fleet.New(fleet.WithObs(reg), fleet.WithHub(hub), fleet.WithWALRoot(walRoot))
		for _, id := range ids {
			if _, err := f.Add(id, catalog[id]); err != nil {
				f.Close()
				return nil, err
			}
		}
		setups.addDur(time.Since(t0))
	}
	defer f.Close()
	o.set("setup_s", setups.median()/float64(time.Second))

	plan := &openPlan{envs: envs, rate: fleetRatePerEnv * float64(len(envs)), seconds: cfg.seconds, traced: cfg.traced}
	samples := &traceSamples{}
	var fes []*fleet.Env
	for _, e := range envs {
		fe, _ := f.Env(e.in.id)
		fes = append(fes, fe)
		if cfg.traced {
			h, _ := f.EnvHandle(e.in.id)
			e.consumers[0].onReceive = tracedReceive(plan, e, h.Tracer, samples)
		}
	}
	stopHub := startWatchers(hub, envs)
	defer stopHub()
	for i, e := range envs {
		for r := 0; r < 2; r++ {
			for k := range e.in.readers {
				if err := f.Ingest(e.in.id, e.in.payload(r, k)); err != nil {
					return nil, err
				}
			}
		}
		if err := waitBaselines(fes[i], len(e.in.readers)); err != nil {
			return nil, err
		}
	}

	var ingest dist
	plan.send = func(e *poolEnv, k, r int, payload []byte) error {
		t0 := time.Now()
		err := f.Ingest(e.in.id, payload)
		t1 := time.Now()
		if cfg.traced && e.due[k].Load() >= plan.split.Load() {
			ingest.addDur(t1.Sub(t0))
			if r == len(e.in.readers)-1 {
				e.sendAt[k].Store(t0.UnixNano())
				e.entryAt[k].Store(t0.UnixNano())
				e.ingestedAt[k].Store(t1.UnixNano())
			}
		}
		return err
	}
	gauges := &gaugeMax{reg: reg}
	var sampler func()
	if cfg.traced {
		sampler = gauges.sample
	}
	var spectra0, spectra float64
	var window0 time.Time
	onWindow := func(start bool) {
		var v float64
		for _, fe := range fes {
			v += float64(fe.Pipeline().Stats().SpectraComputed)
		}
		if start {
			spectra0, window0 = v, time.Now()
		} else {
			spectra = (v - spectra0) / time.Since(window0).Seconds()
		}
	}
	res, err := plan.run(sampler, onWindow)
	stopHub()
	if err != nil {
		return nil, err
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
	setPipelineFromObs(o, reg)
	setTail(o, "fleet.ingest_us_p50", "fleet.ingest_us_p99", &ingest, time.Microsecond)
	setServing(o, envs, res.split)
	setTail(o, "pipeline.queue_wait_us_p50", "pipeline.queue_wait_us_p99", &samples.queueWait, time.Microsecond)
	var resyncs uint64
	for _, e := range envs {
		resyncs += e.consumers[0].resyncs
	}
	o.set("serve.resyncs", float64(resyncs))
	o.set("ledger.unexplained_share", criticalPathLedger("fleet-load", timelines(envs, res.split, res.end)))
	var walDirs []string
	for _, id := range ids {
		walDirs = append(walDirs, filepath.Join(walRoot, id))
	}
	if err := microProbe(o, cfg, ins, walDirs); err != nil {
		return nil, err
	}
	if err := scalingProbe(o, ins[0], refs[0]); err != nil {
		return nil, err
	}
	return o, servingProbe(o, cfg, catalog, ins[0], refs[0], map[string]bool{
		"llrp.frame_us_p50": true, "cluster.relay_us_p50": true,
		"cluster.relay_us_p99": true, "cluster.scrape_ms_p50": true,
	})
}
