// The chaos e2e runs the supervised sessions the way dwatchd does:
// inside a fleet environment. It lives in the external test package
// because fleet imports session.
package session_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/geom"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/session"
	"dwatch/internal/sim"
)

// chaosEnv is the fleet environment the chaos runs localize in; its
// reader IDs are "hall/reader-N".
const chaosEnv = "hall"

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosPositions is a walk through spots the 4-reader hall deployment
// covers both with all four views and with the three survivors after
// reader-4 (right wall) dies — verified against the deployment's
// deadzone map. Coverage holes are real (Section 8), so the chaos test
// must walk where fusion can actually produce fixes in both modes.
func chaosPositions() []geom.Point {
	z := 1.25 // hall ArrayZ
	return []geom.Point{
		geom.Pt(4.0, 2.0, z), geom.Pt(4.0, 3.0, z), geom.Pt(3.0, 3.0, z),
		geom.Pt(3.0, 4.0, z), geom.Pt(3.0, 6.0, z), geom.Pt(3.0, 7.0, z),
		geom.Pt(2.0, 6.0, z),
	}
}

const (
	chaosWalkRounds = 7
	chaosSnapshots  = 4
	// killAfter is the number of rounds delivered to every reader before
	// the victim dies; reviveAfter is when it comes back. Rounds in
	// [killAfter, reviveAfter) reach only the survivors.
	chaosKillAfter   = 4 // 2 baseline + 2 healthy walk rounds
	chaosReviveAfter = 6
)

// chaosResult captures one full run through the supervised stack.
type chaosResult struct {
	fixes map[uint32]pipeline.Fix
	stats pipeline.Stats
}

// runChaosScenario drives pre-generated LLRP rounds through real TCP:
// simulated reader endpoints → (optionally faulty) supervisor sessions
// of a fleet environment with dialed readers → its pipeline. With flap
// set, the last reader is stopped after chaosKillAfter rounds and
// restarted on the same port before round chaosReviveAfter; the rounds
// in between are delivered only to the survivors and must fuse degraded
// via the live-quorum oracle.
func runChaosScenario(t *testing.T, cfg sim.Config, sc *sim.Scenario, rounds []sim.LLRPRound, flap bool, faults *session.FaultConfig) chaosResult {
	t.Helper()

	var eps []session.Endpoint
	var sims []*sim.ReaderEndpoint
	for _, rd := range sc.Readers {
		e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := e.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		sims = append(sims, e)
		eps = append(eps, session.Endpoint{ID: rd.ID, Addr: addr.String()})
	}

	// Keepalive knobs are looser than the session unit tests': spectrum
	// compute on a loaded (or race-instrumented) box can starve the read
	// pump for hundreds of milliseconds, and a false-positive kill here
	// would silently drop an in-flight report.
	opts := []session.Option{
		session.WithKeepalive(llrp.KeepaliveOptions{
			Interval: 100 * time.Millisecond, Timeout: 300 * time.Millisecond, Missed: 5,
		}),
		session.WithBackoff(llrp.BackoffOptions{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond}),
		session.WithBreaker(3, 200*time.Millisecond),
		session.WithJitterSeed(1),
	}
	if faults != nil {
		opts = append(opts, session.WithFaults(*faults))
	}
	f := fleet.New(fleet.WithDial(eps, opts...))
	defer f.Close()

	var mu sync.Mutex
	fixes := map[uint32]pipeline.Fix{}
	e, err := f.Add(chaosEnv, cfg,
		pipeline.WithWorkers(2),
		// A long TTL proves the degraded path — not eviction — rescues
		// the outage rounds.
		pipeline.WithSeqTTL(time.Minute),
		pipeline.WithOnFix(func(fix pipeline.Fix) {
			mu.Lock()
			fixes[fix.Seq] = fix
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Pipeline()
	live := func() int {
		n := 0
		for _, st := range f.Readers() {
			if st.State == session.StateUp.String() {
				n++
			}
		}
		return n
	}
	waitUntil(t, "all sessions up", 10*time.Second, func() bool {
		if live() != len(eps) {
			return false
		}
		for _, e := range sims {
			if !e.Streaming() {
				return false
			}
		}
		return true
	})

	victim := sims[len(sims)-1]
	countFixes := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(fixes)
	}
	for i, rd := range rounds {
		if flap && i == chaosKillAfter {
			victim.Stop()
			waitUntil(t, "victim detected down", 10*time.Second, func() bool {
				return live() == len(eps)-1 && f.Degraded()
			})
		}
		if flap && i == chaosReviveAfter {
			if _, err := victim.Start(victim.Addr()); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "victim reconnected", 10*time.Second, func() bool {
				return live() == len(eps) && !f.Degraded() && victim.Streaming()
			})
		}
		for _, e := range sims {
			if err := e.Broadcast(rd.Payloads[e.ID]); err != nil && !(flap && e == victim) {
				t.Fatalf("round %d: broadcast to %s: %v", i, e.ID, err)
			}
		}
		// Serialize on each round's outcome before sending the next: on
		// outage rounds this proves the degraded path — not TTL eviction
		// or the victim's return — produced the fix, and everywhere it
		// keeps slow spectrum compute from backing up the read pumps.
		// Seq is 1-based over all rounds; baselines emit no fix.
		if i == 1 {
			waitUntil(t, "baselines confirmed", 60*time.Second, func() bool {
				return p.Stats().BaselinesConfirmed == uint64(len(sc.Readers))
			})
		}
		if i >= 2 {
			seq := uint32(i + 1)
			waitUntil(t, "fix for round "+string(rune('0'+i)), 60*time.Second, func() bool {
				mu.Lock()
				defer mu.Unlock()
				_, ok := fixes[seq]
				return ok
			})
		}
	}
	if countFixes() != chaosWalkRounds {
		t.Fatalf("emitted %d fixes, want %d", countFixes(), chaosWalkRounds)
	}
	// Remove stops the supervisor, then drains the pipeline.
	if err := f.Remove(chaosEnv); err != nil {
		t.Fatal(err)
	}
	return chaosResult{fixes: fixes, stats: p.Stats()}
}

// TestChaosEndToEnd is the headline fault-tolerance test: a clean run
// and a chaos run (fault-injected links, one reader killed and
// restarted mid-walk) of a fleet environment with dialed readers, over
// the *same* pre-generated report bytes.
// During the outage the pipeline emits degraded two-view fixes instead
// of stalling; after recovery its fixes are bit-identical to the clean
// run's. Run under -race via `make chaos`.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow; skipped with -short")
	}
	cfg := sim.HallConfig()
	sc, _, err := fleet.Deployment(chaosEnv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One set of report payloads shared by both runs: determinism of the
	// comparison depends on byte-identical inputs.
	rounds, err := sim.GenerateLLRPRoundsAt(sc, chaosPositions(), chaosSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != chaosWalkRounds+2 {
		t.Fatalf("generated %d rounds, want %d", len(rounds), chaosWalkRounds+2)
	}

	clean := runChaosScenario(t, cfg, sc, rounds, false, nil)
	// Delay faults only: they stress timing without corrupting frames,
	// so the delivered bytes — and therefore the fixes — stay identical.
	chaos := runChaosScenario(t, cfg, sc, rounds, true, &session.FaultConfig{
		Seed: 99, DelayProb: 0.15, MaxDelay: 2 * time.Millisecond,
	})

	if len(clean.fixes) != chaosWalkRounds || len(chaos.fixes) != chaosWalkRounds {
		t.Fatalf("fix counts: clean=%d chaos=%d, want %d each",
			len(clean.fixes), len(chaos.fixes), chaosWalkRounds)
	}

	var seqs []int
	for seq := range chaos.fixes {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	allReaders := make([]string, 0, len(sc.Readers))
	for _, rd := range sc.Readers {
		allReaders = append(allReaders, rd.ID)
	}
	sort.Strings(allReaders)
	victimID := sc.Readers[len(sc.Readers)-1].ID

	for _, s := range seqs {
		seq := uint32(s)
		cf, hf := chaos.fixes[seq], clean.fixes[seq]
		if hf.Err != nil {
			t.Fatalf("clean run seq %d failed: %v", seq, hf.Err)
		}
		if hf.Degraded {
			t.Fatalf("clean run seq %d marked degraded", seq)
		}
		outage := s > chaosKillAfter && s <= chaosReviveAfter
		if outage {
			if cf.Err != nil {
				t.Fatalf("outage seq %d: no fix (%v), want degraded fix", seq, cf.Err)
			}
			if !cf.Degraded || cf.Views != len(sc.Readers)-1 {
				t.Fatalf("outage seq %d: degraded=%v views=%d, want degraded 2-view fix",
					seq, cf.Degraded, cf.Views)
			}
			for _, id := range cf.Readers {
				if id == victimID {
					t.Fatalf("outage seq %d lists dead reader %s as contributing", seq, victimID)
				}
			}
			continue
		}
		// Healthy rounds — including every post-recovery one — must match
		// the clean run bit for bit.
		if cf.Err != nil {
			t.Fatalf("seq %d: chaos run fix failed: %v", seq, cf.Err)
		}
		if cf.Degraded {
			t.Fatalf("seq %d: spuriously degraded outside the outage window", seq)
		}
		if cf.Pos != hf.Pos || cf.Confidence != hf.Confidence || cf.Views != hf.Views {
			t.Fatalf("seq %d: chaos fix (%v conf %v views %d) != clean fix (%v conf %v views %d)",
				seq, cf.Pos, cf.Confidence, cf.Views, hf.Pos, hf.Confidence, hf.Views)
		}
		if len(cf.Readers) != len(allReaders) {
			t.Fatalf("seq %d: contributing readers %v, want %v", seq, cf.Readers, allReaders)
		}
	}

	if chaos.stats.DegradedFixes != uint64(chaosReviveAfter-chaosKillAfter) {
		t.Fatalf("DegradedFixes = %d, want %d",
			chaos.stats.DegradedFixes, chaosReviveAfter-chaosKillAfter)
	}
	if clean.stats.DegradedFixes != 0 {
		t.Fatalf("clean run recorded %d degraded fixes", clean.stats.DegradedFixes)
	}
	if chaos.stats.SequencesEvicted != 0 {
		t.Fatalf("chaos run evicted %d sequences; degraded fusion should have rescued them",
			chaos.stats.SequencesEvicted)
	}
}
