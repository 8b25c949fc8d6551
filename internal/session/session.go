// Package session is the fault-tolerant reader-session layer between
// internal/llrp and internal/pipeline: where dwatchd used to trust
// every reader TCP connection to live forever, a session.Supervisor
// owns one supervised Session per expected reader and treats dropout
// as the common case.
//
// Each session runs a small state machine:
//
//	          dial+handshake ok
//	connecting ────────────────▶ up ──▶ (keepalive misses / read error)
//	    ▲  │ fail                         │
//	    │  ▼                              ▼
//	  backoff ◀──────────────────────── down
//	    │  ▲
//	    ▼  │ breaker open (consecutive failures)
//	 half-open probe (one attempt after cooldown)
//
// Liveness is probed with periodic LLRP KEEPALIVEs; a configurable
// number of consecutive unacknowledged probes declares the reader
// down. Reconnects use jittered exponential backoff
// (llrp.BackoffOptions), and every reader is wrapped in a circuit
// breaker so a persistently dead endpoint is probed at the cooldown
// cadence instead of hammered. The supervisor publishes the live
// reader set — the seam the pipeline's quorum-degraded fusion and the
// /readyz endpoint consume — and, when a metrics registry is attached,
// exports dwatch_reader_state, dwatch_reconnects_total,
// dwatch_breaker_transitions_total, and backoff spans.
package session

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/obs"
)

// Breaker defaults: three consecutive failed connection attempts open
// the breaker; a half-open probe unlocks after the cooldown.
const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 2 * time.Second
)

// State is a session's externally visible condition.
type State int

const (
	// StateDown: no usable connection (initial, after loss, or while
	// the breaker cools down).
	StateDown State = iota
	// StateConnecting: a dial + handshake attempt is in flight.
	StateConnecting
	// StateHalfOpen: the circuit breaker is letting one probe attempt
	// through after its cooldown.
	StateHalfOpen
	// StateUp: connected, handshaken, keepalives acknowledged.
	StateUp
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateConnecting:
		return "connecting"
	case StateHalfOpen:
		return "half-open"
	case StateUp:
		return "up"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Code renders the state as the numeric gauge value exported on
// dwatch_reader_state (0=down 1=connecting 2=half-open 3=up).
func (s State) Code() float64 { return float64(s) }

// Endpoint names one expected reader and where to reach it.
type Endpoint struct {
	// ID is the deployment reader ID; the capabilities handshake must
	// confirm it or the connection is rejected.
	ID string
	// Addr is the reader's LLRP TCP address.
	Addr string
}

// Status is a point-in-time snapshot of one session.
type Status struct {
	ID    string
	Addr  string
	State State
	// Since is when the session entered its current state.
	Since time.Time
	// Attempts counts consecutive failed connection attempts since the
	// last successful connect.
	Attempts int
	// Reconnects counts successful re-establishments after the first
	// connect.
	Reconnects uint64
	// LastError describes the most recent failure ("" when none).
	LastError string
}

// Errors.
var (
	ErrNoEndpoints  = errors.New("session: no endpoints configured")
	ErrDuplicateID  = errors.New("session: duplicate endpoint ID")
	ErrWrongReader  = errors.New("session: endpoint identified as a different reader")
	ErrBadHandshake = errors.New("session: handshake failed")
)

// config is assembled by the functional options.
type config struct {
	keepalive        llrp.KeepaliveOptions
	backoff          llrp.BackoffOptions
	breakerThreshold int
	breakerCooldown  time.Duration
	rospec           llrp.ROSpec
	dialer           func(ctx context.Context, addr string) (net.Conn, error)
	handler          func(*llrp.ROAccessReport, []byte) error
	onState          func(id string, st State)
	checkCaps        func(*llrp.ReaderCapabilities) error
	obs              *obs.Registry
	logger           *slog.Logger
	jitterSeed       int64
	jitterSeedSet    bool
}

// Option configures a Supervisor.
type Option func(*config)

// WithKeepalive sets the liveness-probe cadence (interval, per-probe
// timeout, missed-ack threshold). Unset fields inherit the llrp
// defaults.
func WithKeepalive(o llrp.KeepaliveOptions) Option {
	return func(c *config) { c.keepalive = o }
}

// WithBackoff sets the reconnect backoff schedule.
func WithBackoff(o llrp.BackoffOptions) Option {
	return func(c *config) { c.backoff = o }
}

// WithBreaker tunes the per-reader circuit breaker: threshold
// consecutive failures open it, and a half-open probe is allowed after
// cooldown. Zero values keep the defaults.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) {
		c.breakerThreshold = threshold
		c.breakerCooldown = cooldown
	}
}

// WithROSpec sets the reader-operation spec installed after each
// handshake. Default: ID 1, 100 ms period, 10 snapshots per tag (the
// paper's cadence).
func WithROSpec(spec llrp.ROSpec) Option {
	return func(c *config) { c.rospec = spec }
}

// WithDialer replaces the raw transport dialer — the seam for fault
// injection (see FaultDialer) and for tests.
func WithDialer(d func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(c *config) { c.dialer = d }
}

// WithFaults wraps the transport in the deterministic fault injector.
// Shorthand for WithDialer(FaultDialer(cfg)).
func WithFaults(fc FaultConfig) Option {
	return func(c *config) { c.dialer = FaultDialer(fc) }
}

// WithHandler sets the report sink — typically a fleet environment's
// ingest. It receives each report decoded once, together with the raw
// payload it was decoded from (for the WAL). A nil handler discards
// reports.
func WithHandler(fn func(rep *llrp.ROAccessReport, payload []byte) error) Option {
	return func(c *config) { c.handler = fn }
}

// WithOnState registers a state-change observer, invoked outside the
// supervisor's lock (safe to call back into Supervisor methods). The
// pipeline's NotifyLiveChange hangs off this.
func WithOnState(fn func(id string, st State)) Option {
	return func(c *config) { c.onState = fn }
}

// WithCapabilitiesCheck validates the handshake's capabilities beyond
// the built-in reader-ID match (e.g. antenna count vs deployment).
func WithCapabilitiesCheck(fn func(*llrp.ReaderCapabilities) error) Option {
	return func(c *config) { c.checkCaps = fn }
}

// WithObs attaches a metrics registry.
func WithObs(reg *obs.Registry) Option {
	return func(c *config) { c.obs = reg }
}

// WithLogger sets the structured log sink (nil discards). Records
// carry reader/attempt/error fields.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithJitterSeed pins the backoff-jitter random source, making
// reconnect schedules reproducible in tests.
func WithJitterSeed(seed int64) Option {
	return func(c *config) { c.jitterSeed = seed; c.jitterSeedSet = true }
}

// Supervisor owns one supervised session per expected reader.
type Supervisor struct {
	cfg config
	eps []Endpoint

	mu       sync.Mutex
	status   map[string]*Status
	sessions map[string]*Session
	started  bool
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	// Pre-resolved metric children (nil without a registry).
	stateG     map[string]*obs.Gauge
	reconnects map[string]*obs.Counter
	breakerT   *obs.CounterVec
}

// New validates the endpoints and builds a supervisor. Start launches
// the sessions.
func New(endpoints []Endpoint, opts ...Option) (*Supervisor, error) {
	if len(endpoints) == 0 {
		return nil, ErrNoEndpoints
	}
	cfg := config{
		rospec: llrp.ROSpec{ID: 1, PeriodMs: 100, SnapshotsPerTag: 10},
	}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.keepalive = cfg.keepalive.WithDefaults()
	cfg.backoff = cfg.backoff.WithDefaults()
	if !cfg.jitterSeedSet {
		cfg.jitterSeed = time.Now().UnixNano()
	}
	s := &Supervisor{
		cfg:      cfg,
		eps:      append([]Endpoint(nil), endpoints...),
		status:   make(map[string]*Status, len(endpoints)),
		sessions: make(map[string]*Session, len(endpoints)),
	}
	now := time.Now()
	for i, ep := range s.eps {
		if ep.ID == "" || ep.Addr == "" {
			return nil, fmt.Errorf("session: endpoint %d: empty ID or Addr", i)
		}
		if _, dup := s.status[ep.ID]; dup {
			return nil, fmt.Errorf("%w %q", ErrDuplicateID, ep.ID)
		}
		s.status[ep.ID] = &Status{ID: ep.ID, Addr: ep.Addr, State: StateDown, Since: now}
	}
	if reg := cfg.obs; reg != nil {
		stateVec := reg.GaugeVec("dwatch_reader_state",
			"Reader session state (0=down 1=connecting 2=half-open 3=up).", "reader")
		recVec := reg.CounterVec("dwatch_reconnects_total",
			"Successful reader session re-establishments.", "reader")
		s.breakerT = reg.CounterVec("dwatch_breaker_transitions_total",
			"Per-reader circuit-breaker state transitions.", "reader", "to")
		s.stateG = make(map[string]*obs.Gauge, len(s.eps))
		s.reconnects = make(map[string]*obs.Counter, len(s.eps))
		for _, ep := range s.eps {
			s.stateG[ep.ID] = stateVec.With(ep.ID)
			s.reconnects[ep.ID] = recVec.With(ep.ID)
			s.stateG[ep.ID].Set(StateDown.Code())
		}
	}
	for i, ep := range s.eps {
		sess := &Session{
			sup: s,
			ep:  ep,
			br:  newBreaker(cfg.breakerThreshold, cfg.breakerCooldown),
			rng: rand.New(rand.NewSource(cfg.jitterSeed + int64(i)*104729)),
		}
		if s.breakerT != nil {
			to := s.breakerT
			id := ep.ID
			sess.br.onTransition = func(st breakerState) { to.With(id, st.String()).Inc() }
		}
		s.sessions[ep.ID] = sess
	}
	return s, nil
}

// Start launches one supervision goroutine per reader. It may be
// called once.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		s.wg.Add(1)
		go func(sess *Session) {
			defer s.wg.Done()
			sess.run(ctx)
		}(sess)
	}
}

// Stop tears every session down and waits for their goroutines.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	cancel := s.cancel
	s.cancel = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
}

// Status returns a snapshot of every session, sorted by reader ID.
func (s *Supervisor) Status() []Status {
	s.mu.Lock()
	out := make([]Status, 0, len(s.status))
	for _, st := range s.status {
		out = append(out, *st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Live returns the IDs of the readers currently up, sorted — the live
// set the pipeline's quorum fusion consumes.
func (s *Supervisor) Live() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.status))
	for id, st := range s.status {
		if st.State == StateUp {
			out = append(out, id)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Degraded reports whether any expected reader is not up.
func (s *Supervisor) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.status {
		if st.State != StateUp {
			return true
		}
	}
	return false
}

// log returns the configured structured logger (a no-op logger when
// none was set) so call sites log unconditionally.
func (s *Supervisor) log() *slog.Logger {
	if s.cfg.logger != nil {
		return s.cfg.logger
	}
	return nopLogger
}

// Session supervises one reader: connect, probe, reconnect.
type Session struct {
	sup *Supervisor
	ep  Endpoint
	br  *breaker
	rng *rand.Rand
}

// setState publishes a state change (status table, gauge, observer).
func (s *Session) setState(st State, cause error) {
	sup := s.sup
	sup.mu.Lock()
	rec := sup.status[s.ep.ID]
	changed := rec.State != st
	rec.State = st
	if changed {
		rec.Since = time.Now()
	}
	if cause != nil {
		rec.LastError = cause.Error()
	} else if st == StateUp {
		rec.LastError = ""
	}
	sup.mu.Unlock()
	if g := sup.stateG[s.ep.ID]; g != nil {
		g.Set(st.Code())
	}
	if changed && sup.cfg.onState != nil {
		sup.cfg.onState(s.ep.ID, st)
	}
}

func (s *Session) bumpAttempts(n int) {
	s.sup.mu.Lock()
	s.sup.status[s.ep.ID].Attempts = n
	s.sup.mu.Unlock()
}

func (s *Session) markReconnect() {
	s.sup.mu.Lock()
	s.sup.status[s.ep.ID].Reconnects++
	s.sup.mu.Unlock()
	s.sup.reconnects[s.ep.ID].Inc()
	s.sup.cfg.obs.Event("reader_reconnect")
}

// run is the session's supervision loop.
func (s *Session) run(ctx context.Context) {
	attempts := 0
	connectedBefore := false
	for ctx.Err() == nil {
		// Circuit-breaker gate: while open, park until the half-open
		// probe unlocks.
		for {
			ok, wait := s.br.allow(time.Now())
			if ok {
				break
			}
			if !sleepCtx(ctx, wait) {
				return
			}
		}
		if s.br.state == breakerHalfOpen {
			s.setState(StateHalfOpen, nil)
		} else {
			s.setState(StateConnecting, nil)
		}
		conn, err := s.connect(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			s.br.failure(time.Now())
			attempts++
			s.bumpAttempts(attempts)
			s.setState(StateDown, err)
			s.sup.log().Warn("connect attempt failed", "reader", s.ep.ID, "attempt", attempts, "error", err)
			if max := s.sup.cfg.backoff.MaxAttempts; max > 0 && attempts >= max {
				s.sup.log().Error("giving up on reader", "reader", s.ep.ID, "attempts", attempts)
				return
			}
			// Backoff sleep, recorded as a span so dashboards can see
			// time lost to reconnect waits.
			span := s.sup.cfg.obs.StartSpan("backoff")
			ok := sleepCtx(ctx, s.sup.cfg.backoff.Delay(attempts, s.rng))
			span.End()
			if !ok {
				return
			}
			continue
		}
		s.br.success()
		attempts = 0
		s.bumpAttempts(0)
		if connectedBefore {
			s.markReconnect()
		}
		connectedBefore = true
		s.setState(StateUp, nil)
		s.sup.log().Info("session up", "reader", s.ep.ID, "addr", s.ep.Addr)
		err = s.serve(ctx, conn)
		conn.Close()
		if ctx.Err() != nil {
			return
		}
		s.setState(StateDown, err)
		s.sup.log().Warn("connection lost", "reader", s.ep.ID, "error", err)
		// Loss after a healthy connection retries immediately once; the
		// breaker and backoff only engage on consecutive failures.
	}
}

// connect dials and performs the LLRP handshake: greeting (consumed by
// DialWith), capabilities exchange with identity check, ROSpec
// install.
func (s *Session) connect(ctx context.Context) (*llrp.Conn, error) {
	conn, err := llrp.DialWith(ctx, s.ep.Addr, llrp.DialOptions{
		Dialer:  s.sup.cfg.dialer,
		Timeout: s.sup.cfg.keepalive.Interval + s.sup.cfg.keepalive.Timeout,
		Backoff: llrp.BackoffOptions{MaxAttempts: 1},
	})
	if err != nil {
		return nil, err
	}
	if _, err := conn.Send(llrp.MsgGetReaderCapabilities, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: capabilities request: %v", ErrBadHandshake, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: capabilities response: %v", ErrBadHandshake, err)
	}
	if msg.Type != llrp.MsgGetReaderCapabilitiesResponse {
		conn.Close()
		return nil, fmt.Errorf("%w: expected capabilities response, got type %d", ErrBadHandshake, msg.Type)
	}
	caps, err := llrp.UnmarshalReaderCapabilities(msg.Payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if caps.ReaderID != s.ep.ID {
		conn.Close()
		return nil, fmt.Errorf("%w: dialed %q, got %q", ErrWrongReader, s.ep.ID, caps.ReaderID)
	}
	if s.sup.cfg.checkCaps != nil {
		if err := s.sup.cfg.checkCaps(caps); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
		}
	}
	if _, err := conn.Send(llrp.MsgStartROSpec, s.sup.cfg.rospec.Marshal()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: start rospec: %v", ErrBadHandshake, err)
	}
	return conn, nil
}

// serve pumps one established connection: a read goroutine dispatches
// reports and keepalive acks while the control loop probes liveness.
// Returns when the connection dies or the missed-ack threshold trips.
func (s *Session) serve(ctx context.Context, conn *llrp.Conn) error {
	ka := s.sup.cfg.keepalive
	// The read deadline must outlive a full missed-ack window, or idle
	// (reportless) periods would kill healthy connections early.
	conn.SetTimeout(ka.Interval*time.Duration(ka.Missed+1) + ka.Timeout)

	var pending atomic.Int32
	readErr := make(chan error, 1)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				readErr <- err
				return
			}
			switch msg.Type {
			case llrp.MsgKeepaliveAck:
				pending.Store(0)
			case llrp.MsgROAccessReport:
				rep, err := llrp.UnmarshalROAccessReport(msg.Payload)
				if err != nil {
					// A malformed report inside a well-framed message:
					// count and carry on, the stream is still in sync.
					s.sup.cfg.obs.Event("reader_bad_report")
					s.sup.log().Warn("bad report", "reader", s.ep.ID, "error", err)
					continue
				}
				if h := s.sup.cfg.handler; h != nil {
					if err := h(rep, msg.Payload); err != nil {
						s.sup.log().Warn("report handler failed", "reader", s.ep.ID, "error", err)
					}
				}
			case llrp.MsgReaderEventNotification, llrp.MsgStartROSpecResponse,
				llrp.MsgStopROSpecResponse, llrp.MsgKeepalive:
				// Informational (readers may also probe us; the server
				// side answers those at the llrp layer).
			case llrp.MsgError:
				s.sup.log().Warn("reader error message", "reader", s.ep.ID)
			}
		}
	}()

	tick := time.NewTicker(ka.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-readErr:
			return err
		case <-tick.C:
			if int(pending.Load()) >= ka.Missed {
				return fmt.Errorf("session: %s: %d keepalives unacknowledged", s.ep.ID, pending.Load())
			}
			if _, err := conn.Send(llrp.MsgKeepalive, nil); err != nil {
				return fmt.Errorf("session: %s: keepalive send: %w", s.ep.ID, err)
			}
			pending.Add(1)
		}
	}
}

// sleepCtx sleeps for d, returning false if the context fired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
