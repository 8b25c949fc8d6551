package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/session"
	"dwatch/internal/sim"
)

// parseDial turns "env/reader-1=host:port,env/reader-2=host:port" into
// session endpoints.
func parseDial(s string) ([]session.Endpoint, error) {
	var eps []session.Endpoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -dial entry %q (want env/reader=addr)", part)
		}
		eps = append(eps, session.Endpoint{ID: id, Addr: addr})
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("-dial: no endpoints")
	}
	return eps, nil
}

// dialEndpoints resolves the readers the fleet dials: the -dial list,
// whose env-qualified IDs must name catalog environments, or with
// -chaos alone one simulated reader endpoint per catalog reader,
// returned per environment for the chaos driver. Endpoints started
// before an error are returned too, for the caller to stop.
func dialEndpoints(opts runOptions, catalog map[string]sim.Config, ids []string) ([]session.Endpoint, map[string][]*sim.ReaderEndpoint, error) {
	if opts.dial != "" {
		eps, err := parseDial(opts.dial)
		if err != nil {
			return nil, nil, err
		}
		for _, ep := range eps {
			env, _, ok := strings.Cut(ep.ID, "/")
			if _, known := catalog[env]; !ok || !known {
				return nil, nil, fmt.Errorf("-dial %s: reader ID must be <env>/<reader> with env one of %v", ep.ID, ids)
			}
		}
		return eps, nil, nil
	}
	var eps []session.Endpoint
	sims := map[string][]*sim.ReaderEndpoint{}
	for _, id := range ids {
		sc, _, err := fleet.Deployment(id, catalog[id])
		if err != nil {
			return nil, sims, err
		}
		for _, rd := range sc.Readers {
			e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
			addr, err := e.Start("127.0.0.1:0")
			if err != nil {
				return nil, sims, err
			}
			sims[id] = append(sims[id], e)
			eps = append(eps, session.Endpoint{ID: rd.ID, Addr: addr.String()})
			logger.Info("simulated reader listening", "reader", rd.ID, "addr", addr.String())
		}
	}
	return eps, sims, nil
}

// stopEndpoints stops every simulated reader endpoint.
func stopEndpoints(sims map[string][]*sim.ReaderEndpoint) {
	for _, eps := range sims {
		for _, e := range eps {
			e.Stop()
		}
	}
}

// sessionOptions tunes the dialed sessions: -chaos compresses the
// fault-handling cadence so a short run shows down-detection, degraded
// fixes and reconnect, and routes every link through the deterministic
// fault injector.
func sessionOptions(opts runOptions) []session.Option {
	if !opts.chaos {
		return nil
	}
	return []session.Option{
		session.WithKeepalive(llrp.KeepaliveOptions{
			Interval: 100 * time.Millisecond, Timeout: 200 * time.Millisecond, Missed: 2,
		}),
		session.WithBackoff(llrp.BackoffOptions{
			Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond,
		}),
		session.WithBreaker(3, 500*time.Millisecond),
		session.WithJitterSeed(opts.chaosSeed),
		session.WithFaults(session.FaultConfig{
			Seed:      opts.chaosSeed,
			DelayProb: 0.05, // visible jitter without breaking frames
		}),
	}
}

// runChaos drives one environment's simulated readers through
// generated rounds and flaps its last reader mid-walk: stopped after
// the first walking round, restarted opts.chaosFlap later. While it is
// down the environment emits degraded fixes from the live quorum.
func runChaos(ctx context.Context, f *fleet.Fleet, id string, sims []*sim.ReaderEndpoint, opts runOptions) error {
	e, ok := f.Env(id)
	if !ok {
		return fmt.Errorf("chaos: environment %s not found", id)
	}
	rounds, err := sim.GenerateLLRPRounds(e.Scenario(), opts.rounds, 10)
	if err != nil {
		return err
	}
	// Wait for every session to finish its handshake before streaming.
	for _, ep := range sims {
		select {
		case <-ep.WaitStreaming():
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return fmt.Errorf("reader %s: no session after 10s", ep.ID)
		}
	}
	victim := sims[len(sims)-1]
	const interval = 200 * time.Millisecond
	for i, rd := range rounds {
		if i == 3 && len(sims) > 2 { // first walking round delivered; kill one reader
			logger.Info("chaos: killing reader", "reader", victim.ID, "for", opts.chaosFlap.String())
			victim.Stop()
			time.AfterFunc(opts.chaosFlap, func() {
				if _, err := victim.Start(victim.Addr()); err != nil {
					logger.Error("chaos: restart failed", "reader", victim.ID, "error", err)
					return
				}
				logger.Info("chaos: reader restarted", "reader", victim.ID)
			})
		}
		for _, ep := range sims {
			// A dead or reconnecting reader just misses the round.
			_ = ep.Broadcast(rd.Payloads[ep.ID])
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
	return nil
}
