// Command dwatchd is the D-Watch localization server: it consumes RFID
// readers' RO_ACCESS_REPORTs (per-antenna I/Q snapshots per tag),
// maintains per-reader baseline AoA spectra, and publishes localization
// fixes whenever enough readers have reported fresh evidence — the
// deployment of Section 5, where all backscatter packets are forwarded
// to a central server over Ethernet.
//
// dwatchd runs every deployment the same way: each *.json deployment
// config in -env-dir (file stem = environment ID) becomes a fleet
// environment with its own pipeline, tracer, RF-health monitor and WAL
// subdirectory, behind one observability plane. Reader IDs are
// env-qualified ("<env>/<reader>"). A one-file directory is a
// single-deployment server. Reports reach an environment from any mix
// of sources:
//
//   - -listen ADDR: readers dial in over LLRP; each report is routed to
//     the environment its reader ID names (off by default);
//   - -dial env/reader=host:port,...: dwatchd dials its readers (the
//     real LLRP direction) and a session.Supervisor per environment
//     keeps every connection alive with keepalive probes,
//     jittered-backoff reconnects and per-reader circuit breakers; while
//     a reader is down the environment fuses degraded fixes from the
//     live quorum, and /readyz shows per-reader state;
//   - -simulate: generated rounds (two baseline rounds, then a walking
//     target) are fed in process, -sim-interval apart;
//   - -chaos: every environment's readers are simulated LLRP endpoints,
//     dialed through a deterministic fault injector with a compressed
//     keepalive/backoff cadence, and each environment's last reader is
//     killed mid-walk and restarted -chaos-flap later.
//
// With -cluster the env dir is a catalog: the node joins a
// dwatch-gateway directory and hosts (WAL replay included) the
// environments the directory assigns it, handing them off as slots move.
//
// Usage:
//
//	dwatchd -env-dir DIR [-listen ADDR] [-dial env/reader=addr,...]
//	        [-simulate [-rounds N] [-sim-interval D]]
//	        [-chaos [-chaos-flap D] [-chaos-seed N] [-rounds N]]
//	        [-workers N] [-queue N] [-overload block|drop-oldest] [-seq-ttl D]
//	        [-wal-dir DIR] [-wal-fsync interval=1s] [-wal-retention segments=16]
//	        [-wal-segment-bytes SIZE] [-http ADDR] [-profile-dir DIR]
//	        [-cluster URL [-node-id ID] [-advertise URL]] [-log-format text|json]
//
// -http serves the observability plane (off by default): Prometheus
// /metrics, /healthz, /readyz (ready once every environment's reader
// baselines are confirmed), /api/v1/envs, per-environment routes under
// /api/v1/{env}/ (stats, positions, traces, health, wal),
// /api/v1/positions (latest fix per environment, or a live SSE stream
// with ?stream=1), and /debug/pprof/*.
//
// -wal-dir enables the durable ingest WAL (internal/wal): every
// accepted RO_ACCESS_REPORT is appended to <wal-dir>/<env>/ before
// dispatch, and when an environment is added its surviving records are
// replayed through the pipeline, rebuilding baselines and fixes — a
// crash mid-run loses at most the torn tail of the final record.
// -wal-fsync trades throughput for machine-crash durability;
// -wal-retention bounds the on-disk footprint. Replay or benchmark a
// WAL offline with dwatch-replay.
//
// Logs are structured (log/slog); -log-format json switches the sink
// from human-readable text to JSON lines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/wal"
)

func main() {
	var o runOptions
	flag.StringVar(&o.envDir, "env-dir", "", "deployment config directory: every *.json in it (file stem = environment ID) becomes an environment; required")
	flag.StringVar(&o.listen, "listen", "", "LLRP listen address for readers dialing in; reports are routed by env-qualified reader ID (empty = no listener)")
	flag.StringVar(&o.dial, "dial", "", "dial these reader endpoints (env/reader=addr,env/reader=addr) and supervise their sessions")
	flag.BoolVar(&o.simulate, "simulate", false, "drive every environment with generated rounds and a walking target")
	flag.IntVar(&o.rounds, "rounds", 5, "simulated acquisition rounds (-simulate, -chaos)")
	flag.DurationVar(&o.simInterval, "sim-interval", 100*time.Millisecond, "pacing between simulated acquisition rounds")
	flag.BoolVar(&o.chaos, "chaos", false, "chaos demo: dial simulated reader endpoints through a fault injector and flap one reader per environment mid-run")
	flag.DurationVar(&o.chaosFlap, "chaos-flap", 2*time.Second, "how long the chaos run keeps the flapped reader down")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos fault injector and reconnect jitter")
	flag.StringVar(&o.walDir, "wal-dir", "", "durable ingest WAL root: every accepted report is appended to <root>/<env>/ before dispatch, and surviving records are replayed when the environment is added")
	flag.StringVar(&o.walFsync, "wal-fsync", "interval", "WAL fsync policy: always, never, interval, or interval=DURATION")
	flag.StringVar(&o.walRetention, "wal-retention", "", "WAL retention bounds, e.g. segments=16,bytes=2GiB,age=24h (empty = keep everything)")
	flag.StringVar(&o.walSegBytes, "wal-segment-bytes", "", "WAL segment rotation size, e.g. 64MiB (empty = default)")
	flag.IntVar(&o.workers, "workers", 0, "spectrum worker pool size per environment (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "snapshot queue size (0 = default)")
	overload := flag.String("overload", "block", "full-queue policy: block or drop-oldest")
	flag.DurationVar(&o.seqTTL, "seq-ttl", 30*time.Second, "evict incomplete acquisition sequences after this long")
	flag.StringVar(&o.httpAddr, "http", "", "serve the observability plane (metrics, health, positions, pprof) on this address; empty = disabled")
	flag.StringVar(&o.profileDir, "profile-dir", "", "continuous-profiling ring directory: periodic CPU+heap pprof captures, bounded on disk, listed on /api/v1/profiles")
	flag.StringVar(&o.clusterURL, "cluster", "", "join the dwatch-gateway directory at this base URL; the env dir becomes a catalog and ownership follows slot assignment")
	flag.StringVar(&o.nodeID, "node-id", "", "cluster mode: node name announced to the directory (default: hostname)")
	flag.StringVar(&o.advertise, "advertise", "", "cluster mode: base URL the gateway proxies to (default: the -http listener address)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	l, err := newLogger(*logFormat)
	if err != nil {
		fatal("bad flag", "error", err)
	}
	logger = l

	if o.overload, err = parseOverload(*overload); err != nil {
		fatal("bad flag", "error", err)
	}
	switch {
	case o.envDir == "":
		err = errors.New("-env-dir is required (a one-file directory runs a single deployment)")
	case o.simulate && o.chaos:
		err = errors.New("-simulate and -chaos are alternative drivers; pick one")
	case o.clusterURL != "" && o.chaos:
		err = errors.New("-chaos is a single-node demo and cannot join a cluster")
	}
	if err != nil {
		fatal("bad flags", "error", err)
	}
	if err := runFleet(o); err != nil {
		fatal("dwatchd failed", "error", err)
	}
}

// walOptions builds WAL options from the -wal-* flags.
func walOptions(fsync, retention, segBytes string, reg *obs.Registry) ([]wal.Option, error) {
	policy, interval, err := wal.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	opts := []wal.Option{
		wal.WithFsync(policy),
		wal.WithLogger(logger),
		wal.WithObs(reg),
	}
	if interval > 0 {
		opts = append(opts, wal.WithFsyncInterval(interval))
	}
	if retention != "" {
		ret, err := wal.ParseRetention(retention)
		if err != nil {
			return nil, err
		}
		opts = append(opts, wal.WithRetention(ret))
	}
	if segBytes != "" {
		n, err := wal.ParseBytes(segBytes)
		if err != nil {
			return nil, err
		}
		opts = append(opts, wal.WithSegmentMaxBytes(n))
	}
	return opts, nil
}

func pipelineWorkers(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return runtime.GOMAXPROCS(0)
}

func parseOverload(s string) (pipeline.OverloadPolicy, error) {
	switch s {
	case "block":
		return pipeline.Block, nil
	case "drop-oldest":
		return pipeline.DropOldest, nil
	default:
		return 0, fmt.Errorf("unknown overload policy %q (want block or drop-oldest)", s)
	}
}
