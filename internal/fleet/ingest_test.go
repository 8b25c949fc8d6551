package fleet

import (
	"context"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/replay"
	"dwatch/internal/session"
	"dwatch/internal/sim"
)

// outcomes collects a pipeline's fusion outcomes (fixes and misses) by
// sequence, fed through pipeline.WithOnFix.
type outcomes struct {
	mu    sync.Mutex
	bySeq map[uint32]pipeline.Fix
}

func newOutcomes() *outcomes { return &outcomes{bySeq: map[uint32]pipeline.Fix{}} }

func (o *outcomes) add(fix pipeline.Fix) {
	o.mu.Lock()
	o.bySeq[fix.Seq] = fix
	o.mu.Unlock()
}

func (o *outcomes) has(seq uint32) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.bySeq[seq]
	return ok
}

func (o *outcomes) fixes() []pipeline.Fix {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]pipeline.Fix, 0, len(o.bySeq))
	for _, f := range o.bySeq {
		out = append(out, f)
	}
	return out
}

// paritySite is the testdata/fleet environment the ingest-source
// parity test drives.
const paritySite = "site-a"

// feedInLockstep hands each round to send and waits for its outcome
// before the next: the two baseline rounds must confirm every reader,
// and each later round must fuse (or miss). Readers deliver over
// separate connections, so this keeps one reader's slow path from
// reordering rounds across readers.
func feedInLockstep(t *testing.T, e *Env, out *outcomes, rounds []sim.LLRPRound, send func(sim.LLRPRound)) {
	t.Helper()
	readers := uint64(len(e.Scenario().Readers))
	for i, rd := range rounds {
		send(rd)
		switch {
		case i == 1:
			waitFor(t, "baselines", func() bool { return e.Pipeline().Stats().BaselinesConfirmed == readers })
		case i > 1:
			waitFor(t, "round outcome", func() bool { return out.has(rd.Seq) })
		}
	}
}

// sortedReaders returns a round's reader IDs in delivery order.
func sortedReaders(rd sim.LLRPRound) []string {
	ids := make([]string, 0, len(rd.Payloads))
	for id := range rd.Payloads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestIngestSourceParity feeds one set of generated rounds for a
// testdata/fleet environment through each ingest source — Simulate,
// LLRP clients dialing the fleet's listener over TCP, and a supervisor
// dialing simulated reader endpoints — and requires the same fix
// parity from all three, and from replay.Run over each one's WAL.
func TestIngestSourceParity(t *testing.T) {
	id, cfg, err := ReadConfig(filepath.Join("..", "..", "testdata", "fleet", paritySite+".json"))
	if err != nil {
		t.Fatal(err)
	}
	const walks, snapshots = 4, 4
	sc, dep, err := Deployment(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh scenario generates the bytes Simulate generates in a
	// freshly added environment.
	rounds, err := sim.GenerateLLRPRounds(sc, walks, snapshots)
	if err != nil {
		t.Fatal(err)
	}

	// run adds the environment to a fleet with its own WAL root, feeds
	// it through drive, drains it, and returns its outcomes' parity.
	run := func(name string, fopts []Option, drive func(f *Fleet, e *Env, out *outcomes)) (string, string) {
		t.Helper()
		root := t.TempDir()
		f := New(append(fopts, WithWALRoot(root))...)
		defer f.Close()
		out := newOutcomes()
		e, err := f.Add(id, cfg, pipeline.WithOnFix(out.add))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drive(f, e, out)
		if err := f.Remove(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.fixes()) != walks {
			t.Fatalf("%s: %d outcomes, want %d", name, len(out.fixes()), walks)
		}
		return replay.HashFixes(out.fixes()), filepath.Join(root, id)
	}

	simHash, simWAL := run("simulate", nil, func(f *Fleet, _ *Env, _ *outcomes) {
		if err := f.Simulate(context.Background(), id, walks, snapshots, 0); err != nil {
			t.Fatal(err)
		}
	})

	listenHash, listenWAL := run("listen", nil, func(f *Fleet, e *Env, out *outcomes) {
		srv := &llrp.Server{Handler: f}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		conns := map[string]*llrp.Conn{}
		for _, rd := range e.Scenario().Readers {
			c, err := llrp.Dial(context.Background(), addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			caps := llrp.ReaderCapabilities{ReaderID: rd.ID, Antennas: uint16(rd.Array.Elements), Model: "speedway-r420-sim"}
			if _, err := c.Send(llrp.MsgGetReaderCapabilitiesResponse, caps.Marshal()); err != nil {
				t.Fatal(err)
			}
			msg, err := c.Recv()
			if err != nil || msg.Type != llrp.MsgStartROSpec {
				t.Fatalf("reader %s: want StartROSpec, got type %d (%v)", rd.ID, msg.Type, err)
			}
			conns[rd.ID] = c
		}
		feedInLockstep(t, e, out, rounds, func(rd sim.LLRPRound) {
			for _, rid := range sortedReaders(rd) {
				if _, err := conns[rid].Send(llrp.MsgROAccessReport, rd.Payloads[rid]); err != nil {
					t.Fatal(err)
				}
			}
		})
	})

	var eps []session.Endpoint
	endpoints := map[string]*sim.ReaderEndpoint{}
	for _, rd := range sc.Readers {
		ep := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := ep.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Stop()
		endpoints[rd.ID] = ep
		eps = append(eps, session.Endpoint{ID: rd.ID, Addr: addr.String()})
	}
	dialHash, dialWAL := run("dial", []Option{WithDial(eps)}, func(f *Fleet, e *Env, out *outcomes) {
		waitFor(t, "dialed sessions", func() bool {
			for _, ep := range endpoints {
				if !ep.Streaming() {
					return false
				}
			}
			return !f.Degraded() && len(f.Readers()) == len(eps)
		})
		feedInLockstep(t, e, out, rounds, func(rd sim.LLRPRound) {
			for _, rid := range sortedReaders(rd) {
				if err := endpoints[rid].Broadcast(rd.Payloads[rid]); err != nil {
					t.Fatal(err)
				}
			}
		})
	})

	if listenHash != simHash || dialHash != simHash {
		t.Fatalf("ingest sources disagree: simulate %s, listen %s, dial %s", simHash, listenHash, dialHash)
	}
	for name, dir := range map[string]string{"simulate": simWAL, "listen": listenWAL, "dial": dialWAL} {
		src, err := replay.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := replay.Run(src, dep, replay.Options{})
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum.FixParity != simHash {
			t.Errorf("replay of the %s WAL: parity %s, want %s", name, sum.FixParity, simHash)
		}
	}
}

// TestHandleLLRP is the table test for the fleet's LLRP handler: only
// a known reader of a registered environment, with the deployed
// antenna count, gets the StartROSpec; reports route by env prefix.
func TestHandleLLRP(t *testing.T) {
	f := New()
	defer f.Close()
	e, err := f.Add("room-a", tableCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	rd := e.Scenario().Readers[0]
	antennas := uint16(rd.Array.Elements)

	// handle runs one message through Handle over an in-memory
	// connection and returns what the handler wrote back, if anything.
	handle := func(msg llrp.Message) (*llrp.Message, error) {
		srvSide, cliSide := net.Pipe()
		defer cliSide.Close()
		reply := make(chan *llrp.Message, 1)
		go func() {
			m, err := llrp.NewConn(cliSide).Recv()
			if err != nil {
				reply <- nil
				return
			}
			reply <- &m
		}()
		err := f.Handle(llrp.NewConn(srvSide), msg)
		srvSide.Close()
		return <-reply, err
	}
	capsMsg := func(id string, antennas uint16) llrp.Message {
		c := llrp.ReaderCapabilities{ReaderID: id, Antennas: antennas, Model: "test"}
		return llrp.Message{Type: llrp.MsgGetReaderCapabilitiesResponse, Payload: c.Marshal()}
	}

	for _, tc := range []struct {
		name  string
		msg   llrp.Message
		reply uint16 // 0 = the handler must write nothing
	}{
		{"known reader", capsMsg(rd.ID, antennas), llrp.MsgStartROSpec},
		{"unknown reader", capsMsg("room-a/reader-99", antennas), 0},
		{"antenna mismatch", capsMsg(rd.ID, antennas+1), 0},
		{"unknown env prefix", capsMsg("room-b/"+rd.ID[len("room-a/"):], antennas), 0},
		{"unqualified reader ID", capsMsg(rd.ID[len("room-a/"):], antennas), 0},
		{"keepalive", llrp.Message{Type: llrp.MsgKeepalive, ID: 7}, llrp.MsgKeepaliveAck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := handle(tc.msg)
			if err != nil {
				t.Fatalf("Handle = %v", err)
			}
			switch {
			case tc.reply == 0 && got != nil:
				t.Fatalf("handler replied type %d, want nothing", got.Type)
			case tc.reply != 0 && (got == nil || got.Type != tc.reply):
				t.Fatalf("handler reply = %+v, want type %d", got, tc.reply)
			}
			if got != nil && got.Type == llrp.MsgStartROSpec {
				spec, err := llrp.UnmarshalROSpec(got.Payload)
				if err != nil || spec.PeriodMs != 100 || spec.SnapshotsPerTag != 10 {
					t.Fatalf("ROSpec = %+v (%v), want the paper's 100 ms, 10 snapshots", spec, err)
				}
			}
		})
	}

	// Reports: a malformed payload fails the connection; a report for
	// an unregistered environment is logged and dropped; a report for a
	// registered one is ingested.
	if _, err := handle(llrp.Message{Type: llrp.MsgROAccessReport, Payload: []byte{1, 2, 3}}); err == nil {
		t.Fatal("malformed report accepted")
	}
	report := func(readerID string) llrp.Message {
		rep := llrp.ROAccessReport{ReaderID: readerID, Seq: 1}
		payload, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return llrp.Message{Type: llrp.MsgROAccessReport, Payload: payload}
	}
	if _, err := handle(report("room-b/reader-1")); err != nil {
		t.Fatalf("report for an unknown env = %v, want nil (logged)", err)
	}
	if n := e.reports.Load(); n != 0 {
		t.Fatalf("unknown-env report counted on room-a: %d", n)
	}
	if _, err := handle(report(rd.ID)); err != nil {
		t.Fatal(err)
	}
	if n := e.reports.Load(); n != 1 {
		t.Fatalf("room-a reports = %d, want 1", n)
	}
}

// TestAddRejectsUnknownDialEndpoint: a dial endpoint naming no reader
// of its environment is a configuration error, not a silent extra
// session.
func TestAddRejectsUnknownDialEndpoint(t *testing.T) {
	f := New(WithDial([]session.Endpoint{{ID: "room-a/reader-99", Addr: "127.0.0.1:1"}}))
	defer f.Close()
	if _, err := f.Add("room-a", tableCfg(1)); err == nil {
		t.Fatal("Add accepted a dial endpoint for a reader the deployment lacks")
	}
	// Other environments ignore it, and start no supervisor.
	e, err := f.Add("room-b", tableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if e.sup != nil || f.Readers() != nil || f.Degraded() {
		t.Fatal("environment without endpoints started a supervisor")
	}
}
