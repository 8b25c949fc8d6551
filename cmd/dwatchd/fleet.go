package main

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/api/adapt"
	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/profiling"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
)

// runOptions carries the parsed flags.
type runOptions struct {
	envDir string
	listen string
	dial   string

	simulate    bool
	rounds      int
	simInterval time.Duration
	chaos       bool
	chaosFlap   time.Duration
	chaosSeed   int64

	httpAddr   string
	profileDir string

	clusterURL string // gateway base URL; non-empty switches to cluster mode
	nodeID     string
	advertise  string // base URL the gateway proxies to (default: the -http listener)

	walDir       string
	walFsync     string
	walRetention string
	walSegBytes  string

	workers  int
	queue    int
	overload pipeline.OverloadPolicy
	seqTTL   time.Duration
}

// dialed reports whether environments supervise dialed readers.
func (o runOptions) dialed() bool { return o.dial != "" || o.chaos }

// runFleet is dwatchd's one run path: a fleet of environments fed by
// the configured sources, behind one observability plane.
func runFleet(opts runOptions) error {
	reg := obs.NewRegistry()
	hub := serve.NewHub(serve.WithHubObs(reg))
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntime(reg)

	var ring *profiling.Ring
	if opts.profileDir != "" {
		var err error
		ring, err = profiling.Open(opts.profileDir, profiling.Options{Obs: reg, Logger: logger})
		if err != nil {
			return err
		}
		rctx, rcancel := context.WithCancel(context.Background())
		defer rcancel()
		go ring.Run(rctx)
		logger.Info("continuous profiling up", "dir", opts.profileDir)
	}

	catalog, catalogIDs, err := fleet.ReadConfigDir(opts.envDir)
	if err != nil {
		return err
	}

	fopts := []fleet.Option{
		fleet.WithObs(reg),
		fleet.WithHub(hub),
		fleet.WithLogger(logger),
		fleet.WithPipelineOptions(func(string) []pipeline.Option {
			return []pipeline.Option{
				pipeline.WithWorkers(opts.workers),
				pipeline.WithQueueSize(opts.queue),
				pipeline.WithOverload(opts.overload),
				pipeline.WithSeqTTL(opts.seqTTL),
			}
		}),
	}
	if opts.walDir != "" {
		wopts, err := walOptions(opts.walFsync, opts.walRetention, opts.walSegBytes, reg)
		if err != nil {
			return err
		}
		fopts = append(fopts, fleet.WithWALRoot(opts.walDir, wopts...))
	}
	var sims map[string][]*sim.ReaderEndpoint
	if opts.dialed() {
		eps, s, err := dialEndpoints(opts, catalog, catalogIDs)
		// Endpoints stop after the fleet (deferred below) has drained,
		// so no supervisor sees its readers vanish first.
		defer stopEndpoints(s)
		if err != nil {
			return err
		}
		sims = s
		fopts = append(fopts, fleet.WithDial(eps, sessionOptions(opts)...))
	}
	f := fleet.New(fopts...)
	defer f.Close()

	if opts.listen != "" {
		srv := &llrp.Server{Handler: f}
		addr, err := srv.Listen(opts.listen)
		if err != nil {
			return err
		}
		go func() {
			if err := srv.Serve(); err != nil && err != llrp.ErrServerClosed {
				logger.Error("llrp listener failed", "error", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		logger.Info("llrp listening", "addr", addr.String())
	}

	planeOpts := []serve.Option{
		serve.WithRegistry(reg),
		serve.WithHub(hub),
		serve.WithEnvs(f.Infos),
		serve.WithEnvLookup(f.EnvHandle),
		serve.WithReady(f.Ready),
		serve.WithFleetStats(func() api.FleetStats { return fleetStats(f) }),
		serve.WithLogger(logger),
	}
	if opts.dialed() {
		planeOpts = append(planeOpts, serve.WithReaders(f.Readers), serve.WithDegraded(f.Degraded))
	}
	planeOpts = append(planeOpts, profileOptions(ring)...)

	if opts.clusterURL != "" {
		return runFleetClustered(opts, f, catalog, catalogIDs, planeOpts)
	}

	ids, err := f.LoadDir(opts.envDir)
	if err != nil {
		return err
	}
	logger.Info("fleet up", "envs", len(ids), "dir", opts.envDir,
		"workers", pipelineWorkers(opts.workers), "overload", opts.overload.String(),
		"wal_root", opts.walDir, "listen", opts.listen, "dialed", opts.dialed())

	if opts.httpAddr != "" {
		plane := serve.New(planeOpts...)
		planeAddr, err := plane.Start(opts.httpAddr)
		if err != nil {
			return err
		}
		defer shutdownPlane(plane)
		logger.Info("observability plane up", "url", "http://"+planeAddr.String()+"/",
			"endpoints", "metrics healthz readyz api/v1/envs api/v1/{env}")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		var drive func() error
		switch {
		case opts.simulate:
			drive = func() error { return f.Simulate(ctx, id, opts.rounds, 0, opts.simInterval) }
		case opts.chaos && len(sims[id]) > 0:
			drive = func() error { return runChaos(ctx, f, id, sims[id], opts) }
		default:
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := drive(); err != nil && ctx.Err() == nil {
				logger.Error("driver failed", "env", id, "error", err)
			}
		}()
	}
	driversDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(driversDone)
		if opts.simulate || opts.chaos {
			logger.Info("drivers complete", "envs", len(ids), "rounds", opts.rounds)
		}
	}()

	if opts.httpAddr == "" && opts.listen == "" && opts.dial == "" {
		// Nothing to serve: run the drivers (if any) to completion and
		// exit; the deferred Close drains every environment.
		<-driversDone
		return nil
	}
	waitSignal()
	cancel()
	<-driversDone
	return nil
}

// waitSignal blocks until SIGINT or SIGTERM.
func waitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}

// shutdownPlane stops the observability plane, giving in-flight
// requests a few seconds.
func shutdownPlane(plane *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := plane.Shutdown(ctx); err != nil {
		logger.Warn("observability plane shutdown", "error", err)
	}
}

// fleetStats is the aggregate /api/v1/stats body: one pipeline
// snapshot per environment.
func fleetStats(f *fleet.Fleet) api.FleetStats {
	out := api.FleetStats{}
	for _, id := range f.IDs() {
		if e, ok := f.Env(id); ok {
			out[id] = adapt.PipelineStats(e.Pipeline().Stats())
		}
	}
	return out
}

// profileOptions exposes a continuous-profiling ring on
// /api/v1/profiles; a nil ring registers nothing (404).
func profileOptions(ring *profiling.Ring) []serve.Option {
	if ring == nil {
		return nil
	}
	return []serve.Option{serve.WithProfiles(
		func() []api.ProfileInfo { return adapt.Profiles(ring.List()) },
		ring.Open,
	)}
}
