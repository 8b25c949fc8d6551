package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/replay"
	"dwatch/internal/session"
	"dwatch/internal/sim"
)

// fixLog collects one node's fusion outcomes by sequence.
type fixLog struct {
	mu    sync.Mutex
	bySeq map[uint32]pipeline.Fix
}

func newFixLog() *fixLog { return &fixLog{bySeq: map[uint32]pipeline.Fix{}} }

func (l *fixLog) add(fix pipeline.Fix) {
	l.mu.Lock()
	l.bySeq[fix.Seq] = fix
	l.mu.Unlock()
}

func (l *fixLog) has(seq uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.bySeq[seq]
	return ok
}

// hash is the parity of the outcomes whose seq passes keep.
func (l *fixLog) hash(keep func(uint32) bool) (string, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var fixes []pipeline.Fix
	for seq, f := range l.bySeq {
		if keep(seq) {
			fixes = append(fixes, f)
		}
	}
	return replay.HashFixes(fixes), len(fixes)
}

// TestHandoffDialedReaders moves an environment whose readers are
// dialed (session.Supervisor over simulated reader endpoints) from one
// node to another mid-stream. The loser's Remove stops its supervisor
// before the drain; the winner replays the shared WAL and dials the
// same readers. Every fix — the replayed prefix and the post-handoff
// rounds — is bit-identical to a run that never migrated.
func TestHandoffDialedReaders(t *testing.T) {
	const env = "hall"
	cfg := tableCfg(7)
	sc, _, err := fleet.Deployment(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.GenerateLLRPRounds(sc, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	all := func(uint32) bool { return true }

	// ---- Reference: one unmigrated fleet ingests every round. ----
	ref := newFixLog()
	refFleet := fleet.New()
	defer refFleet.Close()
	if _, err := refFleet.Add(env, cfg, pipeline.WithOnFix(ref.add)); err != nil {
		t.Fatal(err)
	}
	for _, rd := range rounds {
		ingestRound(t, refFleet, env, rd)
	}
	if err := refFleet.Remove(env); err != nil { // drains every outcome
		t.Fatal(err)
	}
	if _, n := ref.hash(all); n == 0 {
		t.Fatal("reference run produced no outcomes")
	}

	// ---- Cluster run: the readers are dialed, the env moves. ----
	var eps []session.Endpoint
	var endpoints []*sim.ReaderEndpoint
	for _, rd := range sc.Readers {
		ep := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := ep.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Stop()
		endpoints = append(endpoints, ep)
		eps = append(eps, session.Endpoint{ID: rd.ID, Addr: addr.String()})
	}
	streaming := func(want bool) func() bool {
		return func() bool {
			for _, ep := range endpoints {
				if ep.Streaming() != want {
					return false
				}
			}
			return true
		}
	}

	walRoot := t.TempDir()
	dir := NewDirectory(WithHeartbeat(time.Hour)) // the test steps heartbeats by hand
	gw := NewGateway(dir, WithRetry(10, 20*time.Millisecond))
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	catalog := map[string]sim.Config{env: cfg}
	newNode := func(id string, log *fixLog) (*fleet.Fleet, *Agent) {
		f := fleet.New(fleet.WithWALRoot(walRoot), fleet.WithDial(eps,
			session.WithKeepalive(llrp.KeepaliveOptions{Interval: 100 * time.Millisecond, Timeout: 300 * time.Millisecond, Missed: 5}),
			session.WithBackoff(llrp.BackoffOptions{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond}),
		))
		t.Cleanup(f.Close)
		return f, NewAgent(id, "http://"+id, gts.URL, f, catalog,
			WithPipelineOptions(func(string) []pipeline.Option { return []pipeline.Option{pipeline.WithOnFix(log.add)} }))
	}
	// feed broadcasts rounds through the endpoints, one outcome at a
	// time, so per-connection delivery cannot reorder rounds.
	feed := func(f *fleet.Fleet, log *fixLog, rds []sim.LLRPRound) {
		t.Helper()
		e, _ := f.Env(env)
		for _, rd := range rds {
			for _, ep := range endpoints {
				if err := ep.Broadcast(rd.Payloads[ep.ID]); err != nil {
					t.Fatalf("round %d to %s: %v", rd.Seq, ep.ID, err)
				}
			}
			if rd.Target {
				waitFor(t, "round outcome", func() bool { return log.has(rd.Seq) })
			} else {
				waitFor(t, "baseline round", func() bool {
					return e.Pipeline().Stats().ReportsIn == uint64(len(endpoints))*uint64(rd.Seq)
				})
			}
		}
	}

	ctx := context.Background()
	loser, winner := handoffPair(env)
	loserLog, winnerLog := newFixLog(), newFixLog()
	loserFleet, loserAgent := newNode(loser, loserLog)
	if err := loserAgent.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := loserAgent.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loser dials its readers", func() bool {
		return len(loserFleet.IDs()) == 1 && streaming(true)() && !loserFleet.Degraded()
	})
	half := len(rounds) / 2
	feed(loserFleet, loserLog, rounds[:half])

	winnerFleet, winnerAgent := newNode(winner, winnerLog)
	if err := winnerAgent.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if len(winnerFleet.IDs()) != 0 {
		t.Fatal("winner adopted while the loser still owned the env")
	}
	// The loser drains: its supervisor hangs up before the pipeline
	// flushes, so no reader is left connected to it.
	if err := loserAgent.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(loserFleet.IDs()); got != 0 {
		t.Fatalf("loser still owns %d envs after drain sync", got)
	}
	waitFor(t, "loser sessions closed", streaming(false))
	if err := loserAgent.Sync(ctx); err != nil { // reports owned=[]
		t.Fatal(err)
	}
	if err := winnerAgent.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "winner dials the same readers", func() bool {
		return len(winnerFleet.IDs()) == 1 && streaming(true)() && !winnerFleet.Degraded()
	})
	feed(winnerFleet, winnerLog, rounds[half:])
	if err := winnerFleet.Remove(env); err != nil {
		t.Fatal(err)
	}

	split := rounds[half-1].Seq
	before := func(seq uint32) bool { return seq <= split }
	after := func(seq uint32) bool { return seq > split }
	for _, c := range []struct {
		name string
		log  *fixLog
		keep func(uint32) bool
	}{
		{"loser, before the handoff", loserLog, before},
		{"winner, replayed prefix", winnerLog, before},
		{"winner, after the handoff", winnerLog, after},
	} {
		got, n := c.log.hash(c.keep)
		want, wantN := ref.hash(c.keep)
		if n != wantN || got != want {
			t.Errorf("%s: %d outcomes parity %s, want %d parity %s", c.name, n, got, wantN, want)
		}
	}
	if _, n := ref.hash(after); n == 0 {
		t.Fatal("no post-handoff outcomes to compare")
	}
}
