package pipeline

import (
	"log/slog"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/health"
	"dwatch/internal/loc"
	"dwatch/internal/obs"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/tracing"
)

// Deployment is the required deployment knowledge a pipeline cannot
// run without: which readers exist (and their array geometries) and
// where to search. Everything else is an Option.
type Deployment struct {
	// Arrays maps reader IDs to their array geometries. Reports from
	// readers not listed here are rejected.
	Arrays map[string]*rf.Array
	// Grid is the localization search area.
	Grid loc.Grid
}

// Option configures a Pipeline at construction.
type Option func(*Config)

// WithWorkers sizes the spectrum worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithQueueSize bounds the snapshot job queue (0 = 256).
func WithQueueSize(n int) Option { return func(c *Config) { c.QueueSize = n } }

// WithOverload selects the full-queue policy.
func WithOverload(p OverloadPolicy) Option { return func(c *Config) { c.Overload = p } }

// WithAssemblerShards sizes the sharded fusion stage: sequences are
// distributed seq%N across N shard goroutines so independent
// sequences fuse in parallel (0 = GOMAXPROCS, 1 = serialized fusion).
func WithAssemblerShards(n int) Option { return func(c *Config) { c.AssemblerShards = n } }

// WithExpectReaders overrides how many distinct readers must report a
// sequence before it is fused (0 = all deployed readers).
func WithExpectReaders(n int) Option { return func(c *Config) { c.ExpectReaders = n } }

// WithBaselineRounds sets how many initial reports per reader feed the
// baseline (0 = 2).
func WithBaselineRounds(n int) Option { return func(c *Config) { c.BaselineRounds = n } }

// WithSeqTTL evicts incomplete sequences older than this (0 = 30 s).
func WithSeqTTL(d time.Duration) Option { return func(c *Config) { c.SeqTTL = d } }

// WithMaxPendingSeqs caps concurrently-assembling sequences (0 = 1024).
func WithMaxPendingSeqs(n int) Option { return func(c *Config) { c.MaxPendingSeqs = n } }

// WithFuser tunes the evidence fuser.
func WithFuser(cfg dwatch.Config) Option { return func(c *Config) { c.Fuser = cfg } }

// WithPMusic tunes the spectrum computation.
func WithPMusic(o pmusic.Options) Option { return func(c *Config) { c.PMusic = o } }

// WithLoc tunes the localizer.
func WithLoc(o loc.Options) Option { return func(c *Config) { c.Loc = o } }

// WithOnFix subscribes fn to every fusion outcome from the start, for
// callers that do not own the pipeline's Start (see SubscribeFixes).
func WithOnFix(fn func(Fix)) Option { return func(c *Config) { c.OnFix = fn } }

// WithObs attaches the pipeline to a metrics registry.
func WithObs(reg *obs.Registry) Option { return func(c *Config) { c.Obs = reg } }

// WithTracer attaches a per-sequence tracer: trace IDs are minted at
// ingest, every stage records spans, and emitted Fixes carry the ID.
func WithTracer(tr *tracing.Tracer) Option { return func(c *Config) { c.Tracer = tr } }

// WithHealth attaches the RF-health monitor; every applied tag
// spectrum is folded into its read-rate and path-power statistics.
func WithHealth(m *health.Monitor) Option { return func(c *Config) { c.Health = m } }

// WithLogger attaches a structured logger for pipeline transitions
// (evictions, degraded fusion, baseline confirmation).
func WithLogger(l *slog.Logger) Option { return func(c *Config) { c.Logger = l } }

// WithLiveReaders supplies the live-reader oracle (typically
// session.Supervisor.Live) that enables quorum-degraded fusion: a
// sequence fuses once every live expected reader has reported and at
// least two reporting readers have non-collinear arrays, instead of
// stalling until SeqTTL when a reader is down. Call NotifyLiveChange
// when the live set changes so pending sequences are re-evaluated.
func WithLiveReaders(fn func() []string) Option {
	return func(c *Config) { c.LiveReaders = fn }
}

// New builds a pipeline for a deployment with functional options.
// Start must be called before Ingest.
func New(dep Deployment, opts ...Option) (*Pipeline, error) {
	cfg := Config{Arrays: dep.Arrays, Grid: dep.Grid}
	for _, o := range opts {
		o(&cfg)
	}
	return newFromConfig(cfg)
}
