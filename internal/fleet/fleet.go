// Package fleet is the multi-tenant environment registry: one dwatchd
// process fronting N deployments ("environments"), each with its own
// pipeline, tracer, RF-health monitor, and WAL subdirectory, all
// publishing into one shared serve.Hub and one shared obs.Registry.
//
// The fleet owns the whole per-environment lifecycle: Add builds and
// starts an environment from a sim deployment config (reader IDs are
// prefixed "<env>/" so metric labels and pipeline state never collide
// across tenants), Remove drains it gracefully without disturbing its
// neighbors, Reload is an atomic swap of the two, and LoadDir boots a
// directory of JSON deployment configs — dwatchd's -env-dir.
//
// Every report reaches an environment through one ingest path (decode
// once, WAL append, pipeline.Ingest, counters), whatever its source:
// Ingest (in-process callers and Simulate), Handle (readers dialing in
// over LLRP, routed by the env prefix of their reader ID), or a
// session.Supervisor the environment runs over its dialed readers
// (WithDial).
//
// Environments are placed on a consistent-hash ring over their IDs
// (see Ring); the slot is surfaced per environment as the unit a
// future multi-process fleet would shard by.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/api/adapt"
	"dwatch/internal/health"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/rf"
	"dwatch/internal/serve"
	"dwatch/internal/session"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
	"dwatch/internal/wal"
)

// ErrClosed is returned by lifecycle methods after Close.
var ErrClosed = errors.New("fleet: closed")

// ErrNotFound is returned when an environment ID is not registered.
var ErrNotFound = errors.New("fleet: environment not found")

// Option configures New.
type Option func(*options)

type options struct {
	reg     *obs.Registry
	hub     *serve.Hub
	logger  *slog.Logger
	walRoot string
	walOpts []wal.Option
	slots   int
	pipe    func(envID string) []pipeline.Option
	dial    []session.Endpoint
	sopts   []session.Option
}

// WithObs attaches the shared metrics registry. Per-environment
// pipelines register into the same families; counters aggregate and
// per-env series are distinguished by the reader-ID prefix and the
// fleet's own env-labeled vectors.
func WithObs(reg *obs.Registry) Option { return func(o *options) { o.reg = reg } }

// WithHub attaches the broadcast hub every environment publishes its
// fixes into (Position.Env carries the environment ID).
func WithHub(h *serve.Hub) Option { return func(o *options) { o.hub = h } }

// WithLogger sets the structured logger (default: discard).
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.logger = l } }

// WithWALRoot enables per-environment durable ingest WALs: environment
// <id> logs to <root>/<id>/, and surviving records are replayed through
// its pipeline when the environment is (re-)added.
func WithWALRoot(root string, wopts ...wal.Option) Option {
	return func(o *options) { o.walRoot = root; o.walOpts = wopts }
}

// WithSlots sets the consistent-hash ring size (default 16).
func WithSlots(n int) Option { return func(o *options) { o.slots = n } }

// WithPipelineOptions supplies per-environment pipeline options
// (workers, queue size, overload policy, ...), appended after the
// fleet's own wiring so they can override it.
func WithPipelineOptions(fn func(envID string) []pipeline.Option) Option {
	return func(o *options) { o.pipe = fn }
}

// WithDial gives environments readers to dial out to (dwatchd -dial and
// -chaos). Endpoint IDs are env-qualified ("<env>/<reader>"); Add
// starts a session.Supervisor, configured by sopts, over the endpoints
// of the environment it adds, and Remove stops it before the drain.
// An environment with no endpoints starts none.
func WithDial(eps []session.Endpoint, sopts ...session.Option) Option {
	return func(o *options) { o.dial = eps; o.sopts = sopts }
}

// Env is one registered environment. Fields are immutable after Add;
// the counters are live.
type Env struct {
	id       string
	scenario *sim.Scenario
	pipe     *pipeline.Pipeline
	tracer   *tracing.Tracer
	health   *health.Monitor
	wal      *wal.WAL
	// sup supervises the environment's dialed readers (nil when it has
	// none).
	sup   *session.Supervisor
	slot  int
	added time.Time

	fixes   atomic.Uint64
	reports atomic.Uint64
	// slo accounts ingest→fix latency against the deployment's declared
	// objective (nil when the config has no "slo" block).
	slo *obs.SLOTracker
	// reportCtr is the env's dwatch_fleet_reports_total child, resolved
	// once at Add time: resolving by label in Ingest would resurrect
	// the series after Remove drops it.
	reportCtr *obs.Counter
	// nextSeq offsets generated acquisition sequences across Simulate
	// runs, so a later run's rounds are new sequences to the assembler
	// instead of late duplicates of already-fused ones.
	nextSeq atomic.Uint32

	stop  chan struct{} // closed by Remove: stops Simulate drivers
	fixWG sync.WaitGroup
}

// ID returns the environment ID.
func (e *Env) ID() string { return e.id }

// Scenario returns the built deployment scenario (reader IDs carry the
// "<env>/" prefix).
func (e *Env) Scenario() *sim.Scenario { return e.scenario }

// Pipeline returns the environment's pipeline.
func (e *Env) Pipeline() *pipeline.Pipeline { return e.pipe }

// Slot returns the environment's home slot on the fleet's hash ring.
func (e *Env) Slot() int { return e.slot }

// Fixes returns how many fixes this environment has published.
func (e *Env) Fixes() uint64 { return e.fixes.Load() }

// Fleet is the environment registry. All methods are safe for
// concurrent use.
type Fleet struct {
	o    options
	ring *Ring

	mu     sync.Mutex
	envs   map[string]*Env
	closed bool

	envsGauge  *obs.Gauge
	adds       *obs.Counter
	removes    *obs.Counter
	fixesVec   *obs.CounterVec
	reportsVec *obs.CounterVec
	queueVec   *obs.GaugeVec
	pendingVec *obs.GaugeVec
}

// New builds an empty fleet.
func New(opts ...Option) *Fleet {
	var o options
	for _, op := range opts {
		op(&o)
	}
	if o.logger == nil {
		o.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.slots <= 0 {
		o.slots = 16
	}
	f := &Fleet{o: o, ring: NewRing(o.slots), envs: map[string]*Env{}}
	reg := o.reg
	f.envsGauge = reg.Gauge("dwatch_fleet_environments",
		"Environments currently registered on this fleet.")
	f.adds = reg.Counter("dwatch_fleet_env_adds_total",
		"Environments added over the fleet's lifetime (Reload counts once).")
	f.removes = reg.Counter("dwatch_fleet_env_removes_total",
		"Environments removed over the fleet's lifetime (Reload counts once).")
	f.fixesVec = reg.CounterVec("dwatch_fleet_fixes_total",
		"Localization fixes published, by environment.", "env")
	f.reportsVec = reg.CounterVec("dwatch_fleet_reports_total",
		"RO_ACCESS_REPORTs ingested via the fleet, by environment.", "env")
	f.queueVec = reg.GaugeVec("dwatch_fleet_queue_depth",
		"Instantaneous pipeline report-queue occupancy, by environment.", "env")
	f.pendingVec = reg.GaugeVec("dwatch_fleet_pending_sequences",
		"Sequences mid-assembly, by environment.", "env")
	return f
}

// reservedEnvIDs are single-segment literals under /api/v1/ that the
// serve plane owns; an environment with one of these IDs would be
// unreachable env-scoped (the literal route always wins).
var reservedEnvIDs = map[string]bool{
	"envs": true, "positions": true, "stats": true,
	"traces": true, "health": true, "wal": true,
	"profiles": true, "cluster": true, "nodes": true,
}

// validateID enforces the env-ID grammar: URL-path-safe, one segment,
// not a reserved route name.
func validateID(id string) error {
	if id == "" {
		return errors.New("fleet: empty environment ID")
	}
	if reservedEnvIDs[id] {
		return fmt.Errorf("fleet: environment ID %q collides with a reserved API route", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("fleet: environment ID %q contains %q (want [A-Za-z0-9._-])", id, c)
		}
	}
	return nil
}

// Add builds, registers, and starts an environment from a deployment
// config. Reader IDs are prefixed "<id>/" before anything downstream
// sees them, so per-reader metric labels, health state, and WAL records
// stay disjoint across environments. When a WAL root is configured the
// environment's surviving records are replayed through the fresh
// pipeline before Add returns.
func (f *Fleet) Add(id string, cfg sim.Config, popts ...pipeline.Option) (*Env, error) {
	if err := validateID(id); err != nil {
		return nil, err
	}
	sc, dep, err := Deployment(id, cfg)
	if err != nil {
		return nil, err
	}
	var eps []session.Endpoint
	for _, ep := range f.o.dial {
		if envOf(ep.ID) != id {
			continue
		}
		if dep.Arrays[ep.ID] == nil {
			return nil, fmt.Errorf("fleet: dial endpoint %q: no such reader in %s", ep.ID, id)
		}
		eps = append(eps, ep)
	}

	e := &Env{
		id: id, scenario: sc, added: time.Now(),
		slot: f.ring.Slot(id), stop: make(chan struct{}),
	}
	e.tracer = tracing.New(tracing.WithObs(f.o.reg))
	e.health = health.New(f.o.reg, health.Options{})
	if cfg.SLO != nil {
		e.slo = obs.NewSLOTracker(f.o.reg, id, obs.SLOOptions{
			Target:    time.Duration(cfg.SLO.TargetMS * float64(time.Millisecond)),
			Objective: cfg.SLO.Objective,
		})
	}
	if f.o.walRoot != "" {
		w, err := wal.Open(filepath.Join(f.o.walRoot, id),
			append([]wal.Option{wal.WithLogger(f.o.logger), wal.WithObs(f.o.reg)}, f.o.walOpts...)...)
		if err != nil {
			return nil, fmt.Errorf("fleet: wal %s: %w", id, err)
		}
		e.wal = w
	}

	logger := f.o.logger.With("env", id)
	pipeOpts := []pipeline.Option{
		pipeline.WithObs(f.o.reg),
		pipeline.WithTracer(e.tracer),
		pipeline.WithHealth(e.health),
		pipeline.WithLogger(logger),
	}
	if len(eps) > 0 {
		// The supervisor only builds here; it starts after the WAL
		// replay, so replayed and live rounds never interleave.
		sopts := append([]session.Option{session.WithObs(f.o.reg), session.WithLogger(logger)}, f.o.sopts...)
		e.sup, err = session.New(eps, append(sopts,
			session.WithHandler(e.ingest),
			session.WithCapabilitiesCheck(e.checkCaps),
			session.WithOnState(func(reader string, st session.State) {
				logger.Info("reader state", "reader", reader, "state", st.String())
				e.pipe.NotifyLiveChange()
			}),
		)...)
		if err != nil {
			if e.wal != nil {
				e.wal.Close()
			}
			return nil, fmt.Errorf("fleet: dial %s: %w", id, err)
		}
		pipeOpts = append(pipeOpts, pipeline.WithLiveReaders(e.sup.Live))
	}
	if f.o.pipe != nil {
		pipeOpts = append(pipeOpts, f.o.pipe(id)...)
	}
	pipeOpts = append(pipeOpts, popts...)
	p, err := pipeline.New(dep, pipeOpts...)
	if err != nil {
		if e.wal != nil {
			e.wal.Close()
		}
		return nil, fmt.Errorf("fleet: pipeline %s: %w", id, err)
	}
	e.pipe = p

	e.reportCtr = f.reportsVec.With(id)
	hub, fixCtr := f.o.hub, f.fixesVec.With(id)
	p.SubscribeFixes(func(fix pipeline.Fix) {
		if fix.Err != nil {
			return
		}
		e.fixes.Add(1)
		fixCtr.Add(1)
		if e.slo != nil && fix.TraceID != "" {
			// The trace's start is the sequence's first ingest — the
			// latency the deployment's SLO is declared over.
			if d, ok := e.tracer.Get(fix.TraceID); ok {
				e.slo.Observe(time.Since(d.Start))
			}
		}
		hub.Publish(serve.Position{
			Env: id, Seq: fix.Seq,
			X: fix.Pos.X, Y: fix.Pos.Y,
			Confidence: fix.Confidence, Views: fix.Views,
			Readers: fix.Readers, Degraded: fix.Degraded,
			TraceID: fix.TraceID,
			Time:    time.Now(),
		})
	})
	p.Start()

	// Log-only fix consumer: the pipeline requires Fixes() to be
	// drained; the hub publish above is the real delivery path.
	e.fixWG.Add(1)
	go func() {
		defer e.fixWG.Done()
		for fix := range p.Fixes() {
			if fix.Err != nil {
				logger.Debug("no fix", "seq", fix.Seq, "error", fix.Err)
				continue
			}
			args := []any{"seq", fix.Seq, "x", fix.Pos.X, "y", fix.Pos.Y, "confidence", fix.Confidence}
			if fix.Degraded {
				args = append(args, "degraded", true, "views", fix.Views)
			}
			logger.Info("fix", args...)
		}
	}()

	if e.wal != nil {
		if err := f.replayWAL(e); err != nil {
			f.teardownEnv(e)
			return nil, fmt.Errorf("fleet: wal replay %s: %w", id, err)
		}
	}

	// Collection-time gauges. obs gauge funcs are additive and cannot
	// be unregistered, so the closure reports zero once this *Env is no
	// longer the registered owner of the label (Remove, then re-Add,
	// would otherwise double-count).
	f.queueVec.Func(func() float64 {
		if f.lookup(id) != e {
			return 0
		}
		return float64(p.Stats().QueueDepth)
	}, id)
	f.pendingVec.Func(func() float64 {
		if f.lookup(id) != e {
			return 0
		}
		return float64(p.Stats().PendingSequences)
	}, id)

	if e.sup != nil {
		e.sup.Start()
	}
	if err := f.register(e); err != nil {
		f.teardownEnv(e)
		return nil, err
	}
	f.o.logger.Info("environment added", "env", id, "slot", e.slot,
		"readers", len(sc.Readers), "tags", sc.Cfg.Tags, "wal", e.wal != nil, "dialed", len(eps))
	return e, nil
}

// Deployment builds environment id's scenario from cfg, with every
// reader ID prefixed "<id>/", and the pipeline deployment over those
// readers. Add builds through it, and so must anything that replays an
// environment's WAL: its records carry the prefixed IDs.
func Deployment(id string, cfg sim.Config) (*sim.Scenario, pipeline.Deployment, error) {
	sc, err := sim.Build(cfg)
	if err != nil {
		return nil, pipeline.Deployment{}, fmt.Errorf("fleet: build %s: %w", id, err)
	}
	arrays := make(map[string]*rf.Array, len(sc.Readers))
	for _, r := range sc.Readers {
		if !strings.HasPrefix(r.ID, id+"/") {
			r.ID = id + "/" + r.ID
		}
		arrays[r.ID] = r.Array
	}
	return sc, pipeline.Deployment{Arrays: arrays, Grid: sc.Grid}, nil
}

// envOf returns the environment prefix of an env-qualified reader ID
// ("" when the ID has none).
func envOf(readerID string) string {
	env, _, ok := strings.Cut(readerID, "/")
	if !ok {
		return ""
	}
	return env
}

// ingest is the one per-report path every source shares: durability
// before dispatch (once the WAL append returns, the report survives a
// crash and is replayed when the environment is next added), then the
// pipeline, then the counters.
func (e *Env) ingest(rep *llrp.ROAccessReport, payload []byte) error {
	if e.wal != nil {
		if _, err := e.wal.Append(time.Now(), llrp.MsgROAccessReport, payload); err != nil {
			return fmt.Errorf("fleet: %s: wal append: %w", e.id, err)
		}
	}
	if err := e.pipe.Ingest(rep); err != nil {
		return fmt.Errorf("fleet: %s: %w", e.id, err)
	}
	e.reports.Add(1)
	e.reportCtr.Add(1)
	return nil
}

// checkCaps accepts a reader's capabilities only if it is one of the
// environment's readers with the deployed antenna count; a mismatched
// reader's reports would be rejected anyway.
func (e *Env) checkCaps(caps *llrp.ReaderCapabilities) error {
	for _, r := range e.scenario.Readers {
		if r.ID != caps.ReaderID {
			continue
		}
		if int(caps.Antennas) != r.Array.Elements {
			return fmt.Errorf("reader %s reports %d antennas, deployment has %d",
				caps.ReaderID, caps.Antennas, r.Array.Elements)
		}
		return nil
	}
	return fmt.Errorf("unknown reader %q in environment %s", caps.ReaderID, e.id)
}

// Handle is the fleet's LLRP handler (dwatchd -listen): readers dial
// in, announce their env-qualified ID in the capabilities exchange, and
// stream reports that are routed to the environment the ID names.
func (f *Fleet) Handle(conn *llrp.Conn, msg llrp.Message) error {
	switch msg.Type {
	case llrp.MsgKeepalive:
		return conn.SendWithID(llrp.MsgKeepaliveAck, msg.ID, nil)
	case llrp.MsgGetReaderCapabilitiesResponse:
		caps, err := llrp.UnmarshalReaderCapabilities(msg.Payload)
		if err != nil {
			return err
		}
		e := f.lookup(envOf(caps.ReaderID))
		if e == nil {
			f.o.logger.Warn("capabilities from reader of no environment", "reader", caps.ReaderID)
			return nil
		}
		if err := e.checkCaps(caps); err != nil {
			f.o.logger.Warn("reader rejected; its reports will not be ingested", "reader", caps.ReaderID, "error", err)
			return nil
		}
		f.o.logger.Info("reader online", "reader", caps.ReaderID, "model", caps.Model, "antennas", caps.Antennas)
		// Control plane: install and start the acquisition spec — the
		// paper's cadence (0.1 s period, 10 snapshots per tag).
		spec := llrp.ROSpec{ID: 1, PeriodMs: 100, SnapshotsPerTag: 10}
		_, err = conn.Send(llrp.MsgStartROSpec, spec.Marshal())
		return err
	case llrp.MsgROAccessReport:
		rep, err := llrp.UnmarshalROAccessReport(msg.Payload)
		if err != nil {
			return err
		}
		e := f.lookup(envOf(rep.ReaderID))
		if e == nil {
			err = fmt.Errorf("%w: %q", ErrNotFound, envOf(rep.ReaderID))
		} else {
			err = e.ingest(rep, msg.Payload)
		}
		if err != nil {
			f.o.logger.Warn("ingest failed", "reader", rep.ReaderID, "seq", rep.Seq, "error", err)
		}
	}
	return nil
}

// register inserts e under the fleet lock.
func (f *Fleet) register(e *Env) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, dup := f.envs[e.id]; dup {
		return fmt.Errorf("fleet: environment %q already registered", e.id)
	}
	f.envs[e.id] = e
	f.adds.Add(1)
	f.envsGauge.Set(float64(len(f.envs)))
	return nil
}

func (f *Fleet) lookup(id string) *Env {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.envs[id]
}

// Env returns a registered environment.
func (f *Fleet) Env(id string) (*Env, bool) {
	e := f.lookup(id)
	return e, e != nil
}

// IDs lists registered environment IDs, sorted.
func (f *Fleet) IDs() []string {
	f.mu.Lock()
	ids := make([]string, 0, len(f.envs))
	for id := range f.envs {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Len reports the registered environment count.
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.envs)
}

// Remove deregisters an environment and drains it gracefully: new
// lookups miss immediately, any Simulate driver and the dialed-reader
// supervisor stop, the pipeline flushes in-flight work, the WAL closes,
// and the hub forgets the environment's latest fix. Other environments
// are untouched.
func (f *Fleet) Remove(id string) error {
	f.mu.Lock()
	e, ok := f.envs[id]
	if ok {
		delete(f.envs, id)
		f.removes.Add(1)
		f.envsGauge.Set(float64(len(f.envs)))
		// Per-env series die with the environment, inside the lock so
		// a concurrent re-Add starts fresh children (and fresh gauge
		// closures) instead of inheriting stale ones. The ownership
		// guards on the queue/pending closures keep the old closures
		// silent in the window before the old children are dropped.
		f.fixesVec.Remove(id)
		f.reportsVec.Remove(id)
		f.queueVec.Remove(id)
		f.pendingVec.Remove(id)
		e.slo.Close()
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	f.teardownEnv(e)
	f.o.logger.Info("environment removed", "env", id)
	return nil
}

// teardownEnv stops the environment's machinery outside the fleet lock.
func (f *Fleet) teardownEnv(e *Env) {
	e.slo.Close() // idempotent; covers Add-failure paths that skip Remove
	close(e.stop)
	if e.sup != nil {
		e.sup.Stop() // no report may race the drain
	}
	e.pipe.Drain()
	e.fixWG.Wait()
	if e.wal != nil {
		e.wal.Close()
	}
	f.o.hub.Forget(e.id)
}

// Reload atomically replaces an environment with a rebuilt one from a
// (possibly changed) config: graceful drain of the old, then Add of the
// new under the same ID. The WAL subdirectory is reused — records from
// readers that no longer exist are skipped during replay.
func (f *Fleet) Reload(id string, cfg sim.Config, popts ...pipeline.Option) (*Env, error) {
	if err := f.Remove(id); err != nil {
		return nil, err
	}
	return f.Add(id, cfg, popts...)
}

// ReadConfig parses one JSON deployment config; the file stem is the
// environment ID ("warehouse-a.json" → "warehouse-a").
func ReadConfig(path string) (string, sim.Config, error) {
	id := strings.TrimSuffix(filepath.Base(path), ".json")
	file, err := os.Open(path)
	if err != nil {
		return "", sim.Config{}, fmt.Errorf("fleet: %w", err)
	}
	defer file.Close()
	cfg, err := sim.LoadConfig(file)
	if err != nil {
		return "", sim.Config{}, fmt.Errorf("fleet: %s: %w", filepath.Base(path), err)
	}
	return id, cfg, nil
}

// ReadConfigDir parses every *.json deployment config in dir without
// registering anything; the file stem is the environment ID
// ("warehouse-a.json" → "warehouse-a"). Returns the catalog plus the
// IDs sorted by filename — the shape a cluster agent announces to the
// directory before it owns anything.
func ReadConfigDir(dir string) (map[string]sim.Config, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %w", err)
	}
	catalog := map[string]sim.Config{}
	var ids []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id, cfg, err := ReadConfig(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		catalog[id] = cfg
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("fleet: no *.json deployment configs in %s", dir)
	}
	return catalog, ids, nil
}

// LoadDir registers every *.json deployment config in dir (see
// ReadConfigDir for the naming convention). Returns the IDs added,
// sorted by filename. The first failure aborts the load with earlier
// environments left running.
func (f *Fleet) LoadDir(dir string, popts ...pipeline.Option) ([]string, error) {
	catalog, ids, err := ReadConfigDir(dir)
	if err != nil {
		return nil, err
	}
	added := ids[:0]
	for _, id := range ids {
		if _, err := f.Add(id, catalog[id], popts...); err != nil {
			return added, err
		}
		added = append(added, id)
	}
	return added, nil
}

// Ingest decodes one RO_ACCESS_REPORT payload and feeds it through
// environment id's ingest path.
func (f *Fleet) Ingest(id string, payload []byte) error {
	e := f.lookup(id)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	rep, err := llrp.UnmarshalROAccessReport(payload)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", id, err)
	}
	return e.ingest(rep, payload)
}

// Simulate drives an environment with generated LLRP rounds (two
// baseline rounds, then a target walking for `rounds` acquisition
// periods), pacing one round per interval. It returns early when the
// context ends or the environment is removed. snapshotsPerTag ≤ 0 uses
// the paper's 10.
func (f *Fleet) Simulate(ctx context.Context, id string, rounds, snapshotsPerTag int, interval time.Duration) error {
	e := f.lookup(id)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	gen, err := sim.GenerateLLRPRounds(e.scenario, rounds, snapshotsPerTag)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", id, err)
	}
	// Shift this run's sequences past everything already driven, so
	// repeated Simulate calls extend the stream instead of replaying
	// already-fused sequence numbers (which the assembler drops as
	// late).
	base := e.nextSeq.Load()
	var maxSeq uint32
	var tick *time.Ticker
	if interval > 0 {
		tick = time.NewTicker(interval)
		defer tick.Stop()
	}
	for _, round := range gen {
		seq := round.Seq + base
		if seq > maxSeq {
			maxSeq = seq
		}
		for _, payload := range payloadsInOrder(round) {
			if base != 0 {
				rep, err := llrp.UnmarshalROAccessReport(payload)
				if err != nil {
					return fmt.Errorf("fleet: %s: %w", id, err)
				}
				rep.Seq = seq
				if payload, err = rep.Marshal(); err != nil {
					return fmt.Errorf("fleet: %s: %w", id, err)
				}
			}
			if err := f.Ingest(id, payload); err != nil {
				if errors.Is(err, ErrNotFound) {
					return nil // removed mid-run: a clean stop, not an error
				}
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.stop:
			return nil
		default:
		}
		if tick != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-e.stop:
				return nil
			case <-tick.C:
			}
		}
	}
	e.nextSeq.Store(maxSeq)
	return nil
}

// payloadsInOrder returns a round's per-reader payloads in a stable
// reader order, for deterministic ingest.
func payloadsInOrder(round sim.LLRPRound) [][]byte {
	ids := make([]string, 0, len(round.Payloads))
	for rid := range round.Payloads {
		ids = append(ids, rid)
	}
	sort.Strings(ids)
	out := make([][]byte, 0, len(ids))
	for _, rid := range ids {
		out = append(out, round.Payloads[rid])
	}
	return out
}

// replayWAL re-ingests an environment's surviving records through its
// fresh pipeline; reports for readers the (possibly reloaded) scenario
// no longer has are skipped.
func (f *Fleet) replayWAL(e *Env) error {
	var replayed, skipped int
	res, err := wal.Scan(e.wal.Dir(), func(rec wal.Record) error {
		if rec.Type != llrp.MsgROAccessReport {
			return nil
		}
		rep, err := llrp.UnmarshalROAccessReport(rec.Payload)
		if err != nil {
			skipped++
			return nil
		}
		if rep.Seq > e.nextSeq.Load() {
			// Future Simulate runs must start past the replayed stream.
			e.nextSeq.Store(rep.Seq)
		}
		if err := e.pipe.Ingest(rep); err != nil {
			if errors.Is(err, pipeline.ErrUnknownReader) {
				skipped++
				return nil
			}
			return err
		}
		replayed++
		return nil
	})
	if err != nil {
		return err
	}
	if res.Records > 0 {
		f.o.logger.Info("wal recovery replayed", "env", e.id,
			"records", res.Records, "ingested", replayed, "skipped", skipped)
	}
	return nil
}

// snapshot returns the registered environments sorted by ID.
func (f *Fleet) snapshot() []*Env {
	f.mu.Lock()
	envs := make([]*Env, 0, len(f.envs))
	for _, e := range f.envs {
		envs = append(envs, e)
	}
	f.mu.Unlock()
	sort.Slice(envs, func(i, j int) bool { return envs[i].id < envs[j].id })
	return envs
}

// Ready reports nil once every environment has confirmed all its
// reader baselines — the /readyz hook.
func (f *Fleet) Ready() error {
	for _, e := range f.snapshot() {
		st := e.pipe.Stats()
		if st.BaselinesConfirmed < uint64(len(e.scenario.Readers)) {
			return fmt.Errorf("environment %q: %d/%d baselines confirmed",
				e.id, st.BaselinesConfirmed, len(e.scenario.Readers))
		}
	}
	return nil
}

// Readers is the /readyz reader-state hook: the status of every
// dialed reader session across the fleet, sorted by reader ID.
func (f *Fleet) Readers() []serve.ReaderStatus {
	var out []serve.ReaderStatus
	for _, e := range f.snapshot() {
		if e.sup == nil {
			continue
		}
		for _, st := range e.sup.Status() {
			out = append(out, serve.ReaderStatus{
				ID: st.ID, Addr: st.Addr, State: st.State.String(),
				Since: st.Since, Reconnects: st.Reconnects, LastError: st.LastError,
			})
		}
	}
	return out
}

// Degraded is the /readyz degraded-mode hook: true while any dialed
// reader is not up, so some environment fuses from a partial quorum.
func (f *Fleet) Degraded() bool {
	for _, e := range f.snapshot() {
		if e.sup != nil && e.sup.Degraded() {
			return true
		}
	}
	return false
}

// Infos adapts the registry to serve.WithEnvs: a sorted listing with
// live fix/report counts.
func (f *Fleet) Infos() []serve.EnvInfo {
	envs := f.snapshot()
	out := make([]serve.EnvInfo, len(envs))
	for i, e := range envs {
		out[i] = e.info()
	}
	return out
}

func (e *Env) info() serve.EnvInfo {
	name := e.scenario.Name
	if name == e.id {
		name = ""
	}
	return serve.EnvInfo{
		ID: e.id, Name: name, Slot: e.slot,
		Readers: len(e.scenario.Readers), Tags: e.scenario.Cfg.Tags,
		Fixes: e.fixes.Load(), Reports: e.reports.Load(),
		Added: e.added,
	}
}

// EnvHandle adapts the registry to serve.WithEnvLookup.
func (f *Fleet) EnvHandle(id string) (serve.EnvHandle, bool) {
	e := f.lookup(id)
	if e == nil {
		return serve.EnvHandle{}, false
	}
	h := serve.EnvHandle{
		Info:   e.info(),
		Stats:  func() api.PipelineStats { return adapt.PipelineStats(e.pipe.Stats()) },
		Tracer: e.tracer,
		Health: e.health,
	}
	if w := e.wal; w != nil {
		h.WALStatus = func() api.WALStatus { return adapt.WALStatus(w.Status()) }
	}
	return h, true
}

// Close removes every environment (graceful drains included) and
// rejects further lifecycle calls.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	envs := make([]*Env, 0, len(f.envs))
	for _, e := range f.envs {
		envs = append(envs, e)
	}
	f.envs = map[string]*Env{}
	f.envsGauge.Set(0)
	f.mu.Unlock()
	for _, e := range envs {
		f.teardownEnv(e)
	}
}
