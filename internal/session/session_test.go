package session

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/sim"
)

// fastOptions returns timing knobs compressed for tests: down-detection
// within ~100ms, reconnect within ~50ms.
func fastOptions() []Option {
	return []Option{
		WithKeepalive(llrp.KeepaliveOptions{
			Interval: 25 * time.Millisecond, Timeout: 50 * time.Millisecond, Missed: 2,
		}),
		WithBackoff(llrp.BackoffOptions{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond}),
		WithBreaker(3, 100*time.Millisecond),
		WithJitterSeed(1),
	}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSupervisorValidation: construction rejects empty and duplicate
// endpoint sets.
func TestSupervisorValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("New(nil) err = %v, want ErrNoEndpoints", err)
	}
	eps := []Endpoint{{ID: "r", Addr: "a"}, {ID: "r", Addr: "b"}}
	if _, err := New(eps); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate IDs err = %v, want ErrDuplicateID", err)
	}
}

// TestSupervisorStreamsReports runs the full happy path over real TCP:
// the supervisor dials two simulated reader endpoints, completes the
// capabilities + StartROSpec handshake, survives several keepalive
// cycles, and delivers broadcast RO_ACCESS_REPORTs to the handler.
func TestSupervisorStreamsReports(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.GenerateLLRPRounds(sc, 1, 4)
	if err != nil {
		t.Fatal(err)
	}

	var eps []Endpoint
	var sims []*sim.ReaderEndpoint
	for _, rd := range sc.Readers {
		e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := e.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		sims = append(sims, e)
		eps = append(eps, Endpoint{ID: rd.ID, Addr: addr.String()})
	}

	var mu sync.Mutex
	got := map[string]int{}
	opts := append(fastOptions(),
		WithHandler(func(rep *llrp.ROAccessReport) error {
			mu.Lock()
			got[rep.ReaderID]++
			mu.Unlock()
			return nil
		}),
		WithObs(obs.NewRegistry()),
	)
	sup, err := New(eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	waitFor(t, "all sessions up", 5*time.Second, func() bool {
		return len(sup.Live()) == len(eps) && !sup.Degraded()
	})
	for _, e := range sims {
		if !e.Streaming() {
			t.Fatalf("endpoint %s saw no StartROSpec", e.ID)
		}
	}

	// Idle across several keepalive intervals: probes must keep the
	// sessions alive, not kill them.
	time.Sleep(120 * time.Millisecond)
	if live := sup.Live(); len(live) != len(eps) {
		t.Fatalf("sessions died while idle: live=%v", live)
	}

	for _, rd := range rounds {
		for _, e := range sims {
			if err := e.Broadcast(rd.Payloads[e.ID]); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "reports delivered", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range sims {
			if got[e.ID] != len(rounds) {
				return false
			}
		}
		return true
	})

	for _, st := range sup.Status() {
		if st.State != StateUp || st.Reconnects != 0 {
			t.Fatalf("status %+v, want up with 0 reconnects", st)
		}
	}
}

// TestSupervisorReconnect kills one endpoint, waits for the supervisor
// to notice (degraded, reader down), restarts it on the same port, and
// asserts the session comes back with a counted reconnect — the
// keepalive → backoff → breaker loop end to end.
func TestSupervisorReconnect(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	victimID := sc.Readers[0].ID
	var eps []Endpoint
	sims := map[string]*sim.ReaderEndpoint{}
	for _, rd := range sc.Readers {
		e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := e.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		sims[rd.ID] = e
		eps = append(eps, Endpoint{ID: rd.ID, Addr: addr.String()})
	}

	states := make(chan string, 64)
	opts := append(fastOptions(), WithOnState(func(id string, st State) {
		select {
		case states <- id + ":" + st.String():
		default:
		}
	}))
	sup, err := New(eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	waitFor(t, "all up", 5*time.Second, func() bool { return len(sup.Live()) == len(eps) })

	victim := sims[victimID]
	victim.Stop()
	waitFor(t, "victim detected down", 5*time.Second, func() bool {
		for _, id := range sup.Live() {
			if id == victimID {
				return false
			}
		}
		return sup.Degraded()
	})

	if _, err := victim.Start(victim.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim reconnected", 5*time.Second, func() bool {
		for _, id := range sup.Live() {
			if id == victimID {
				return !sup.Degraded()
			}
		}
		return false
	})
	for _, st := range sup.Status() {
		if st.ID == victimID && st.Reconnects < 1 {
			t.Fatalf("victim status %+v, want Reconnects >= 1", st)
		}
	}

	// The observer saw the victim go down and come back.
	downSeen, upAgain := false, 0
	for {
		select {
		case s := <-states:
			if s == victimID+":down" {
				downSeen = true
			}
			if s == victimID+":up" {
				upAgain++
			}
			continue
		default:
		}
		break
	}
	if !downSeen || upAgain < 2 {
		t.Fatalf("state observer missed the flap (down=%v ups=%d)", downSeen, upAgain)
	}
}

// TestSupervisorWrongReader: an endpoint reporting a different reader ID
// is rejected during the handshake and the session stays down.
func TestSupervisorWrongReader(t *testing.T) {
	e := sim.NewReaderEndpoint("imposter", 8)
	addr, err := e.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	sup, err := New([]Endpoint{{ID: "reader-1", Addr: addr.String()}}, fastOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	waitFor(t, "handshake rejection recorded", 5*time.Second, func() bool {
		st := sup.Status()[0]
		return st.State != StateUp && strings.Contains(st.LastError, "imposter")
	})
	if live := sup.Live(); len(live) != 0 {
		t.Fatalf("imposter session reported live: %v", live)
	}
}

// TestSupervisorFaultyLink runs the happy path through the fault
// injector with delay and occasional reset faults: the supervisor must
// still deliver every broadcast round, reconnecting as needed.
func TestSupervisorFaultyLink(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.GenerateLLRPRounds(sc, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var eps []Endpoint
	var sims []*sim.ReaderEndpoint
	for _, rd := range sc.Readers {
		e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
		addr, err := e.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		sims = append(sims, e)
		eps = append(eps, Endpoint{ID: rd.ID, Addr: addr.String()})
	}

	var mu sync.Mutex
	got := map[string]int{}
	opts := append(fastOptions(),
		WithFaults(FaultConfig{Seed: 42, DelayProb: 0.2, MaxDelay: 2 * time.Millisecond}),
		WithHandler(func(rep *llrp.ROAccessReport) error {
			mu.Lock()
			got[rep.ReaderID]++
			mu.Unlock()
			return nil
		}),
	)
	sup, err := New(eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	// A session is up once it has sent StartROSpec; an endpoint can
	// stream only after it has processed it, so wait for both before
	// broadcasting.
	waitFor(t, "all up and streaming through faults", 10*time.Second, func() bool {
		if len(sup.Live()) != len(eps) {
			return false
		}
		for _, e := range sims {
			if !e.Streaming() {
				return false
			}
		}
		return true
	})
	for _, rd := range rounds {
		for _, e := range sims {
			if err := e.Broadcast(rd.Payloads[e.ID]); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "reports through faulty link", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range sims {
			if got[e.ID] < len(rounds) {
				return false
			}
		}
		return true
	})
}
