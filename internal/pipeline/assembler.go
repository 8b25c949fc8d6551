package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/loc"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/tracing"
)

// report is one reader's completed acquisition report: every tag's
// spectrum computed (or failed/shed to nil and omitted), ready for
// round-ordered application. Workers produce one per job; the ingest
// path produces them directly for tagless reports.
type report struct {
	reader  string
	round   int
	seq     uint32
	spectra map[string]*pmusic.Spectrum
}

// seqGroup accumulates one acquisition sequence across readers.
type seqGroup struct {
	byReader map[string]map[string]*pmusic.Spectrum
	created  time.Time
}

// readerSeq is one reader's round sequencer: workers finish that
// reader's reports in arbitrary order, and submit applies them in
// round order under the per-reader lock — so baselines are built
// exactly as in the synchronous path, without funneling every reader
// through one goroutine.
type readerSeq struct {
	mu    sync.Mutex
	next  int
	ready map[int]*report
}

// assembler is stages 3+4, sharded: per-reader sequencers feed
// complete reports to seq%N shard goroutines that own the grouping
// state, so fusion for independent sequences runs in parallel. The
// fuser is shared under a read-write lock (baseline writes are rare
// and confined to startup; BuildView is read-only), and the grid-index
// cache is shared under its own lock since entries are immutable.
type assembler struct {
	p     *Pipeline
	fuser *dwatch.Fuser
	// fuserMu orders baseline mutation against concurrent BuildView
	// reads from the fusion shards. dwatch.Fuser itself is not
	// synchronized: AddBaseline/FinishBaseline take the write side,
	// BuildView the read side.
	fuserMu sync.RWMutex

	// seqs holds one round sequencer per deployed reader; the reader
	// set is fixed at construction, so the map itself is read-only.
	seqs map[string]*readerSeq

	shards  []*shard
	shardWG sync.WaitGroup
	// shardsStopped is closed after every shard goroutine has exited
	// (teardown); submission then applies reports inline, which keeps
	// post-Drain test driving and late flushes single-threaded-safe.
	shardsStopped chan struct{}

	// pending counts sequences mid-assembly across all shards, plus
	// slots reserved for groups about to be inserted — the only
	// assembler state Stats reads, and the cap gate for MaxPendingSeqs
	// (enforced globally by reserve, so the count never exceeds the
	// cap).
	pending atomic.Int64

	// baselineApplied counts baseline-round reports applied per
	// sequence so the sequence's trace can be finished (outcome
	// "baseline") once every expected reader's report landed.
	baselineMu      sync.Mutex
	baselineApplied map[uint32]int

	// gridIdx caches each array's cell→angle-bin table for the search
	// grid. GridIndex values are immutable and share-safe; the lock
	// only guards the map itself.
	gridMu  sync.Mutex
	gridIdx map[gridIdxKey]*loc.GridIndex
}

type gridIdxKey struct {
	arr  *rf.Array
	bins int
}

// shard owns the online/done grouping state for the sequences with
// seq % shards == index. Its goroutine consumes the shard channel,
// sweeps its own groups on a timer, and fuses independently of the
// other shards. The mutex exists for the two cross-shard paths —
// global cap eviction and post-teardown inline application — plus the
// Stats-adjacent test accessors.
type shard struct {
	a    *assembler
	ch   chan *report
	live chan struct{}

	mu     sync.Mutex
	online map[uint32]*seqGroup
	// done records sequences already fused or evicted (with the time
	// they finished) so late reports are counted instead of
	// resurrecting a group; pruned by the sweeper.
	done map[uint32]time.Time
}

func newAssembler(p *Pipeline, fuser *dwatch.Fuser) *assembler {
	a := &assembler{
		p:               p,
		fuser:           fuser,
		seqs:            map[string]*readerSeq{},
		shardsStopped:   make(chan struct{}),
		baselineApplied: map[uint32]int{},
		gridIdx:         map[gridIdxKey]*loc.GridIndex{},
	}
	for id := range p.cfg.Arrays {
		a.seqs[id] = &readerSeq{ready: map[int]*report{}}
	}
	a.shards = make([]*shard, p.cfg.AssemblerShards)
	for i := range a.shards {
		a.shards[i] = &shard{
			a:      a,
			ch:     make(chan *report, 64),
			live:   make(chan struct{}, 1),
			online: map[uint32]*seqGroup{},
			done:   map[uint32]time.Time{},
		}
	}
	return a
}

// submit hands one completed report to the assembler. It buffers
// out-of-order rounds and applies in-order ones immediately, holding
// the reader's sequencer lock through application so no later round
// can overtake an earlier one mid-apply. Called from worker goroutines
// and (for tagless reports) from Ingest.
func (a *assembler) submit(g *report) error {
	rs := a.seqs[g.reader]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ready[g.round] = g
	for {
		next, ok := rs.ready[rs.next]
		if !ok {
			return nil
		}
		delete(rs.ready, rs.next)
		rs.next++
		if err := a.apply(next); err != nil {
			return err
		}
	}
}

// apply processes one in-order report: baseline rounds feed the fuser,
// online rounds route to their sequence's shard. Every applied
// spectrum also feeds the RF-health monitor — baseline rounds
// included, since channel statistics accrue regardless of phase.
func (a *assembler) apply(g *report) error {
	if a.p.cfg.Health != nil && len(g.spectra) > 0 {
		now := a.p.now()
		for epc, sp := range g.spectra {
			a.p.cfg.Health.Observe(g.reader, epc, sp, now)
		}
	}
	if g.round < a.p.cfg.BaselineRounds {
		a.applyBaseline(g)
		return nil
	}
	return a.route(g)
}

// applyBaseline folds one baseline-round report into the fuser under
// the write lock.
func (a *assembler) applyBaseline(g *report) {
	confirm := g.round == a.p.cfg.BaselineRounds-1
	a.fuserMu.Lock()
	for epc, sp := range g.spectra {
		a.fuser.AddBaseline(g.reader, []byte(epc), sp)
	}
	if confirm {
		a.fuser.FinishBaseline()
	}
	a.fuserMu.Unlock()
	if confirm {
		a.p.m.readers[g.reader].baselines.Inc()
		if l := a.p.cfg.Logger; l != nil {
			l.Info("baseline confirmed", "reader", g.reader, "tags", len(g.spectra))
		}
	}
	// Baseline sequences never fuse; finish their trace once every
	// expected reader's report for this sequence has been applied.
	if a.p.cfg.Tracer != nil {
		a.baselineMu.Lock()
		a.baselineApplied[g.seq]++
		finished := a.baselineApplied[g.seq] >= a.p.cfg.ExpectReaders
		if finished {
			delete(a.baselineApplied, g.seq)
		}
		a.baselineMu.Unlock()
		if finished {
			a.p.cfg.Tracer.Finish(g.seq, tracing.OutcomeBaseline, a.p.now())
		}
	}
}

// route delivers an online report to its sequence's shard. After the
// shards have exited (teardown), the report is applied inline instead —
// at that point submission is single-threaded (post-Drain tests).
func (a *assembler) route(g *report) error {
	s := a.shards[int(g.seq)%len(a.shards)]
	select {
	case <-a.shardsStopped:
		s.accept(g)
		return nil
	default:
	}
	select {
	case s.ch <- g:
		return nil
	case <-a.shardsStopped:
		s.accept(g)
		return nil
	case <-a.p.stop:
		return ErrClosed
	}
}

// run is one shard goroutine: it consumes routed reports until the
// channel closes, sweeping its own stale sequences on a timer and
// re-evaluating the quorum gate when poked.
func (s *shard) run() {
	defer s.a.shardWG.Done()
	tick := time.NewTicker(sweepInterval(s.a.p.cfg.SeqTTL))
	defer tick.Stop()
	for {
		select {
		case g, ok := <-s.ch:
			if !ok {
				return
			}
			s.accept(g)
		case <-tick.C:
			s.sweep(s.a.p.now())
		case <-s.live:
			s.reevaluate()
		case <-s.a.p.stop:
			return
		}
	}
}

func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// accept folds one online report into its sequence group and fuses the
// group once complete. Only this shard creates, fuses or TTL-evicts
// groups for its sequences, so the unlocked existence probe cannot race
// an insert, and a group it saw can only have left through another
// shard's cap eviction, which marks it done. The lock is dropped around
// slot reservation to keep the cross-shard eviction scan free of nested
// shard locks.
func (s *shard) accept(g *report) {
	a := s.a
	s.mu.Lock()
	_, dup := s.done[g.seq]
	_, exists := s.online[g.seq]
	s.mu.Unlock()
	if dup {
		a.p.m.late.Inc()
		return
	}
	if !exists {
		// Claim a pending slot before inserting (evicting while the
		// global count sits at the cap), so it never exceeds
		// MaxPendingSeqs.
		a.reserve()
	}
	s.mu.Lock()
	if _, dup := s.done[g.seq]; dup {
		// A cap eviction driven from another shard can have evicted
		// g.seq's existing group while the lock was dropped — recheck.
		s.mu.Unlock()
		a.p.m.late.Inc()
		return
	}
	grp := s.online[g.seq]
	if grp == nil {
		grp = &seqGroup{byReader: map[string]map[string]*pmusic.Spectrum{}, created: a.p.now()}
		s.online[g.seq] = grp
	}
	grp.byReader[g.reader] = g.spectra
	ready, degraded := s.takeIfReady(g.seq, grp)
	s.mu.Unlock()
	if ready {
		a.fuse(g.seq, grp, degraded)
	}
}

// takeIfReady checks the fusion gate for a pending group and, when it
// passes, removes the group and records its assembly — all under the
// shard lock. The caller fuses outside the lock.
func (s *shard) takeIfReady(seq uint32, grp *seqGroup) (ready, degraded bool) {
	a := s.a
	if len(grp.byReader) < a.p.cfg.ExpectReaders {
		if !a.quorumReady(grp) {
			return false, false
		}
		degraded = true
	}
	delete(s.online, seq)
	a.pending.Add(-1)
	now := a.p.now()
	s.done[seq] = now
	a.p.m.assembled.Inc()
	// The assemble span runs from the group's creation (first report
	// of the sequence) to completion: cross-reader skew, not CPU time.
	a.p.m.assemble.ObserveDuration(now.Sub(grp.created))
	a.p.cfg.Tracer.Active(seq).Span(tracing.StageAssemble, "", "", grp.created, now, 0)
	return true, degraded
}

// quorumReady reports whether an incomplete sequence may fuse in
// degraded mode: a LiveReaders oracle is configured, every live
// expected reader has reported, and at least two of the reporting
// readers carry non-collinear arrays (Eq. 15's likelihood product
// needs two crossing bearing constraints to pin a point).
func (a *assembler) quorumReady(grp *seqGroup) bool {
	oracle := a.p.cfg.LiveReaders
	if oracle == nil {
		return false
	}
	for _, id := range oracle() {
		if _, expected := a.p.cfg.Arrays[id]; !expected {
			continue
		}
		if _, reported := grp.byReader[id]; !reported {
			return false
		}
	}
	arrs := make([]*rf.Array, 0, len(grp.byReader))
	for id := range grp.byReader {
		if arr := a.p.cfg.Arrays[id]; arr != nil {
			arrs = append(arrs, arr)
		}
	}
	for i := 0; i < len(arrs); i++ {
		for j := i + 1; j < len(arrs); j++ {
			if nonCollinear(arrs[i], arrs[j]) {
				return true
			}
		}
	}
	return false
}

// nonCollinear reports whether two arrays constrain two independent
// axes: their axes are not parallel, or they are parallel but offset
// sideways (two facing walls still triangulate; two arrays end-to-end
// on the same line do not).
func nonCollinear(a, b *rf.Array) bool {
	const eps = 1e-9
	if cz := a.Axis.X*b.Axis.Y - a.Axis.Y*b.Axis.X; cz > eps || cz < -eps {
		return true
	}
	d := b.Center().Sub(a.Center())
	oz := a.Axis.X*d.Y - a.Axis.Y*d.X
	return oz > eps || oz < -eps
}

// reevaluate re-runs the fusion gate over this shard's pending
// sequences; run when the live-reader set changes (a reader going down
// may make already-received evidence sufficient). Sequence order keeps
// a burst of unblocked sequences deterministic within the shard.
func (s *shard) reevaluate() {
	s.mu.Lock()
	pending := make([]uint32, 0, len(s.online))
	for seq := range s.online {
		pending = append(pending, seq)
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	for _, seq := range pending {
		s.mu.Lock()
		grp := s.online[seq]
		var ready, degraded bool
		if grp != nil {
			ready, degraded = s.takeIfReady(seq, grp)
		}
		s.mu.Unlock()
		if ready {
			s.a.fuse(seq, grp, degraded)
		}
	}
}

// fuse builds drop views for one complete (or quorum-degraded)
// sequence and localizes. Runs on the owning shard's goroutine with no
// shard lock held; the fuser is read-locked for view building only.
func (a *assembler) fuse(seq uint32, grp *seqGroup, degraded bool) {
	start := a.p.now()
	trc := a.p.cfg.Tracer.Active(seq)
	if degraded {
		trc.MarkDegraded()
		trc.Event(tracing.EventDegradedQuorum,
			fmt.Sprintf("%d/%d readers", len(grp.byReader), a.p.cfg.ExpectReaders), start)
		if l := a.p.cfg.Logger; l != nil {
			l.Warn("degraded fusion", "seq", seq, "trace", trc.ID(),
				"reported", len(grp.byReader), "expected", a.p.cfg.ExpectReaders)
		}
	}
	// Deterministic view order: likelihood products are commutative
	// but not associative in floating point, so a stable order keeps
	// fixes bit-identical across runs, worker counts, and shard counts.
	ids := make([]string, 0, len(grp.byReader))
	for id := range grp.byReader {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	a.fuserMu.RLock()
	var views []*loc.View
	for _, id := range ids {
		if v := a.fuser.BuildView(id, grp.byReader[id]); v != nil {
			views = append(views, v)
		}
	}
	a.fuserMu.RUnlock()
	fix := Fix{Seq: seq, Views: len(views), Readers: ids, Degraded: degraded, TraceID: trc.ID()}
	if len(views) < 2 {
		fix.Err = fmt.Errorf("pipeline: seq %d: evidence from only %d readers", seq, len(views))
	} else if res, err := a.localize(views); err != nil {
		fix.Err = err
	} else {
		fix.Pos = res.Pos
		fix.Confidence = res.Confidence
	}
	end := a.p.now()
	a.p.m.fuse.ObserveDuration(end.Sub(start))
	trc.Span(tracing.StageFuse, "", "", start, end, 0)
	outcome := tracing.OutcomeFix
	if fix.Err != nil {
		outcome = tracing.OutcomeMiss
		trc.Event(tracing.EventMiss, fix.Err.Error(), end)
	}
	a.p.cfg.Tracer.Finish(seq, outcome, end)
	switch {
	case fix.Err != nil:
		a.p.m.fixMiss.Inc()
	case degraded:
		a.p.m.fixDegraded.Inc()
	default:
		a.p.m.fixFull.Inc()
	}
	// Subscribers see every outcome before the channel send, so a
	// slow Fixes consumer cannot starve the live position feed.
	for _, fn := range a.p.fixSubs {
		fn(fix)
	}
	select {
	case a.p.fixes <- fix:
	case <-a.p.stop:
	}
}

// localize runs the grid search through the cached per-array
// GridIndex tables (bit-identical to loc.Localize), falling back to
// the direct search if a table cannot be built for some view. The
// cache lock covers only the map; the table walk runs unlocked since
// GridIndex values are immutable.
func (a *assembler) localize(views []*loc.View) (loc.Result, error) {
	indexes := make([]*loc.GridIndex, len(views))
	for i, v := range views {
		k := gridIdxKey{arr: v.Array, bins: len(v.Angles)}
		a.gridMu.Lock()
		g, ok := a.gridIdx[k]
		a.gridMu.Unlock()
		if !ok {
			var err error
			g, err = loc.NewGridIndex(v.Array, a.p.cfg.Grid, len(v.Angles))
			if err != nil {
				return loc.Localize(views, a.p.cfg.Grid, a.p.cfg.Loc)
			}
			a.gridMu.Lock()
			a.gridIdx[k] = g
			a.gridMu.Unlock()
		}
		indexes[i] = g
	}
	return loc.LocalizeIndexed(views, indexes, a.p.cfg.Grid, a.p.cfg.Loc)
}

// sweep evicts sequence groups older than SeqTTL across every shard
// and prunes the done sets. Returns how many groups were evicted.
// During normal operation each shard sweeps itself on its own timer;
// this aggregate exists for drained-pipeline driving (tests, final
// flush accounting).
func (a *assembler) sweep(now time.Time) int {
	n := 0
	for _, s := range a.shards {
		n += s.sweep(now)
	}
	return n
}

// sweep evicts this shard's sequence groups older than SeqTTL and
// prunes its done set. Bookkeeping runs under the shard lock; tracer
// and logger calls (internally synchronized) run after.
func (s *shard) sweep(now time.Time) int {
	a := s.a
	type evicted struct {
		seq uint32
		grp *seqGroup
	}
	var evs []evicted
	s.mu.Lock()
	for seq, grp := range s.online {
		if now.Sub(grp.created) >= a.p.cfg.SeqTTL {
			delete(s.online, seq)
			a.pending.Add(-1)
			s.done[seq] = now
			evs = append(evs, evicted{seq, grp})
		}
	}
	for seq, t := range s.done {
		if now.Sub(t) >= 4*a.p.cfg.SeqTTL {
			delete(s.done, seq)
		}
	}
	s.mu.Unlock()
	for _, ev := range evs {
		a.p.m.evictedTTL.Inc()
		trc := a.p.cfg.Tracer.Active(ev.seq)
		trc.Event(tracing.EventTTLEvicted,
			fmt.Sprintf("%d/%d readers after %v", len(ev.grp.byReader), a.p.cfg.ExpectReaders, now.Sub(ev.grp.created)), now)
		a.p.cfg.Tracer.Finish(ev.seq, tracing.OutcomeEvicted, now)
		if l := a.p.cfg.Logger; l != nil {
			l.Warn("sequence evicted", "seq", ev.seq, "trace", trc.ID(), "reason", "ttl",
				"reported", len(ev.grp.byReader), "expected", a.p.cfg.ExpectReaders)
		}
	}
	return len(evs)
}

// reserve claims one pending slot for a new group — the global
// MaxPendingSeqs cap, which is the memory backstop when a reader dies
// and TTL has not fired yet. Checking the count and claiming the slot
// is one compare-and-swap, so two shards can never both take the last
// slot; while the count sits at the cap, the globally oldest pending
// group is evicted first. The slot is released (pending decremented)
// when the group fuses or is evicted. Shards are scanned one at a time
// (never two shard locks at once), so there is no lock ordering to
// violate; losing a race to a concurrent fuse, eviction or reservation
// just means re-checking.
func (a *assembler) reserve() {
	limit := int64(a.p.cfg.MaxPendingSeqs)
	for {
		n := a.pending.Load()
		if n < limit {
			if a.pending.CompareAndSwap(n, n+1) {
				return
			}
			continue
		}
		var victim *shard
		var vseq uint32
		var vt time.Time
		for _, s := range a.shards {
			s.mu.Lock()
			for seq, grp := range s.online {
				if victim == nil || grp.created.Before(vt) {
					victim, vseq, vt = s, seq, grp.created
				}
			}
			s.mu.Unlock()
		}
		if victim == nil {
			// Every slot is claimed by a reservation whose group is not
			// inserted yet; let its shard finish the insert.
			runtime.Gosched()
			continue
		}
		victim.evictCap(vseq)
	}
}

// evictCap removes one group by sequence for the pending-cap backstop;
// a no-op if the group fused or was evicted since the caller's scan.
func (s *shard) evictCap(seq uint32) {
	a := s.a
	s.mu.Lock()
	grp := s.online[seq]
	if grp == nil {
		s.mu.Unlock()
		return
	}
	delete(s.online, seq)
	a.pending.Add(-1)
	now := a.p.now()
	s.done[seq] = now
	s.mu.Unlock()
	a.p.m.evictedCap.Inc()
	trc := a.p.cfg.Tracer.Active(seq)
	trc.Event(tracing.EventCapEvicted,
		fmt.Sprintf("pending over %d", a.p.cfg.MaxPendingSeqs), now)
	a.p.cfg.Tracer.Finish(seq, tracing.OutcomeEvicted, now)
	if l := a.p.cfg.Logger; l != nil {
		l.Warn("sequence evicted", "seq", seq, "trace", trc.ID(), "reason", "cap")
	}
}

// pendingSequences reports how many sequences are mid-assembly from
// the shared atomic — a properly synchronized read that may run ahead
// of the shard maps by reservations whose insert is in flight, and is
// exact once the pipeline is drained.
func (a *assembler) pendingSequences() int { return int(a.pending.Load()) }

// onlineLen counts pending groups straight from the shard maps — the
// exact (locked) companion to pendingSequences, for tests and
// post-drain inspection.
func (a *assembler) onlineLen() int {
	n := 0
	for _, s := range a.shards {
		s.mu.Lock()
		n += len(s.online)
		s.mu.Unlock()
	}
	return n
}
