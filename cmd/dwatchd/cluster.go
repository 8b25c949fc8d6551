package main

import (
	"context"
	"errors"
	"os"

	"dwatch/internal/api"
	"dwatch/internal/cluster"
	"dwatch/internal/fleet"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
)

// Clustered fleet mode (-env-dir plus -cluster): the env directory is
// a *catalog* of deployments this node can host, not a set it owns.
// Ownership comes from the gateway's directory — the agent joins,
// heartbeats, and reconciles the fleet against each response, adopting
// (WAL replay included) and draining environments as slot assignments
// move. -simulate starts traffic on each environment when this node
// adopts it and stops when the environment drains away; dialed readers
// (-dial) follow their environment the same way, since fleet.Add and
// Remove start and stop its supervisor.
func runFleetClustered(opts runOptions, f *fleet.Fleet, catalog map[string]sim.Config, ids []string, planeOpts []serve.Option) error {
	if opts.httpAddr == "" {
		return errors.New("-cluster requires -http: the gateway proxies environment requests to this node")
	}
	nodeID := opts.nodeID
	if nodeID == "" {
		host, err := os.Hostname()
		if err != nil {
			return err
		}
		nodeID = host
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	plane := serve.New(append(planeOpts, serve.WithCluster(func() api.ClusterStatus {
		st := api.ClusterStatus{Role: "node", Node: nodeID, Assignments: map[string]string{}}
		for _, id := range f.IDs() {
			st.Assignments[id] = nodeID
		}
		return st
	}))...)
	planeAddr, err := plane.Start(opts.httpAddr)
	if err != nil {
		return err
	}
	defer shutdownPlane(plane)
	advertise := opts.advertise
	if advertise == "" {
		advertise = "http://" + planeAddr.String()
	}

	var aopts []cluster.AgentOption
	aopts = append(aopts, cluster.WithAgentLogger(logger))
	if opts.simulate {
		aopts = append(aopts, cluster.WithOnAdopt(func(id string) {
			go func() {
				if err := f.Simulate(ctx, id, opts.rounds, 0, opts.simInterval); err != nil && ctx.Err() == nil {
					logger.Error("simulate failed", "env", id, "error", err)
				}
			}()
		}))
	}
	agent := cluster.NewAgent(nodeID, advertise, opts.clusterURL, f, catalog, aopts...)

	logger.Info("cluster node up", "node", nodeID, "gateway", opts.clusterURL,
		"advertise", advertise, "catalog", len(ids), "wal_root", opts.walDir)

	runDone := make(chan error, 1)
	go func() { runDone <- agent.Run(ctx) }()

	sigDone := make(chan struct{})
	go func() { waitSignal(); close(sigDone) }()
	select {
	case <-sigDone:
	case err := <-runDone:
		if err != nil && !errors.Is(err, context.Canceled) {
			logger.Error("cluster agent stopped", "error", err)
		}
	}
	agent.Close() // leaves the directory (waits for the Run loop)
	cancel()
	f.Close() // graceful drain: supervisors stop, pipeline flush, WAL close
	return nil
}
