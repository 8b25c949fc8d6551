package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/cluster"
	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
)

// node is one cluster node built in process the way dwatchd -cluster
// builds it — fleet with an obs registry, a hub and a WAL root at the
// default interval fsync, a serve plane, a cluster agent — joined to
// an in-process gateway, plus an LLRP listener whose handler feeds
// fleet.Ingest. The gateway's federation scrape is not started: the
// benchmark calls ScrapeOnce itself at the shipped cadence so it can
// time it.
type node struct {
	reg   *obs.Registry
	hub   *serve.Hub
	fleet *fleet.Fleet
	plane *serve.Server
	gw    *cluster.Gateway
	gwSrv *http.Server
	gwURL string
	agent *cluster.Agent
	llrp  *llrp.Server
	// llrpAddr is where readers (the benchmark's sender) connect.
	llrpAddr string
	// client reads the gateway; its transport is closed at teardown.
	client *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startNode brings a node up and returns once every catalog
// environment is adopted and the LLRP listener accepts connections —
// the span setup_s times. handler receives every inbound LLRP message.
func startNode(walRoot string, catalog map[string]sim.Config, handler func(n *node, msg llrp.Message) error) (*node, error) {
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{reg: obs.NewRegistry(), cancel: cancel,
		client: &http.Client{Transport: &http.Transport{}}}
	obs.RegisterBuildInfo(n.reg)
	obs.RegisterRuntime(n.reg)
	n.hub = serve.NewHub(serve.WithHubObs(n.reg))
	n.fleet = fleet.New(fleet.WithObs(n.reg), fleet.WithHub(n.hub), fleet.WithWALRoot(walRoot))
	const nodeID = "bench-node"
	n.plane = serve.New(
		serve.WithRegistry(n.reg),
		serve.WithHub(n.hub),
		serve.WithEnvs(n.fleet.Infos),
		serve.WithEnvLookup(n.fleet.EnvHandle),
		serve.WithReady(n.fleet.Ready),
		serve.WithCluster(func() api.ClusterStatus {
			st := api.ClusterStatus{Role: "node", Node: nodeID, Assignments: map[string]string{}}
			for _, id := range n.fleet.IDs() {
				st.Assignments[id] = nodeID
			}
			return st
		}),
	)
	planeAddr, err := n.plane.Start("127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}

	gwReg := obs.NewRegistry()
	obs.RegisterBuildInfo(gwReg)
	obs.RegisterRuntime(gwReg)
	n.gw = cluster.NewGateway(cluster.NewDirectory(), cluster.WithGatewayObs(gwReg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.gwURL = "http://" + ln.Addr().String()
	n.gwSrv = &http.Server{Handler: n.gw.Handler()}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.gwSrv.Serve(ln) // returns ErrServerClosed at teardown
	}()

	n.agent = cluster.NewAgent(nodeID, "http://"+planeAddr.String(), n.gwURL, n.fleet, catalog)
	if err := n.agent.Join(ctx); err != nil {
		n.close()
		return nil, err
	}
	if got := len(n.fleet.IDs()); got != len(catalog) {
		n.close()
		return nil, fmt.Errorf("node adopted %d of %d environments", got, len(catalog))
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.agent.Run(ctx) // heartbeats until teardown
	}()

	n.llrp = &llrp.Server{Handler: llrp.HandlerFunc(func(_ *llrp.Conn, msg llrp.Message) error {
		return handler(n, msg)
	})}
	addr, err := n.llrp.Listen("127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.llrpAddr = addr.String()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.llrp.Serve() // ends at teardown; a dead listener shows as undelivered fixes
	}()
	return n, nil
}

// waitWatchers blocks until the node's hub has at least want attached
// watchers (an SSE stream through the gateway attaches one).
func (n *node) waitWatchers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n.reg.Snapshot()["dwatch_broker_watchers"] < float64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %v of %d hub watchers attached", n.reg.Snapshot()["dwatch_broker_watchers"], want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close tears the node down: agent, fleet (graceful drain), servers.
// Callers end their SSE watchers and LLRP connections first.
func (n *node) close() {
	n.cancel()
	if n.llrp != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = n.llrp.Shutdown(ctx) // a timeout here only leaks a goroutine
		cancel()
	}
	if n.agent != nil {
		n.agent.Close()
	}
	n.fleet.Close()
	if n.gwSrv != nil {
		_ = n.gwSrv.Close() // SSE relays never go idle; close, don't drain
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = n.plane.Shutdown(ctx)
	cancel()
	n.wg.Wait()
	n.client.CloseIdleConnections()
}
