package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/obs"
)

func TestHealthz(t *testing.T) {
	s := New()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body.String())
	}
}

// TestReadyzFlips: 503 while the Ready hook errors, 200 once it
// passes — the baseline-confirmation gate as dwatchd wires it.
func TestReadyzFlips(t *testing.T) {
	ready := false
	s := New(WithReady(func() error {
		if !ready {
			return errors.New("baseline: 0/2 readers confirmed")
		}
		return nil
	}))
	h := s.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready readyz = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "0/2 readers") {
		t.Fatalf("readyz body %q lacks reason", rr.Body.String())
	}

	ready = true
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("ready readyz = %d, want 200", rr.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dwatch_test_total", "A test counter.").Add(3)
	s := New(WithRegistry(reg))
	h := s.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE dwatch_test_total counter",
		"dwatch_test_total 3",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}

	// The serve plane counts its own requests, including the in-flight
	// scrape, so the second scrape reports both.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), `dwatch_http_requests_total{path="/metrics"} 2`) {
		t.Fatalf("request counter missing:\n%s", rr.Body.String())
	}
}

// TestStatsJSON: the stats hook serves an api.FleetStats (one
// api.PipelineStats per environment), decodable by the typed client's
// contract.
func TestStatsJSON(t *testing.T) {
	fs := New(WithFleetStats(func() api.FleetStats {
		return api.FleetStats{"site-a": {ReportsIn: 12, Fixes: 9}}
	}))
	rr := httptest.NewRecorder()
	fs.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/stats", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("stats = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var fleet api.FleetStats
	if err := json.Unmarshal(rr.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet["site-a"].ReportsIn != 12 || fleet["site-a"].Fixes != 9 {
		t.Fatalf("fleet stats = %+v", fleet)
	}

	// No hook: 404, not a panic.
	none := New()
	rr = httptest.NewRecorder()
	none.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/stats", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("hookless stats = %d, want 404", rr.Code)
	}
}

func TestPositionsJSON(t *testing.T) {
	h := NewHub()
	mustPublish(t, h, Position{Env: "hall", Seq: 7, X: 1.5, Y: 2.5, Confidence: 40, Views: 2})
	mustPublish(t, h, Position{Env: "hall", Seq: 8, X: 1.6, Y: 2.4, Confidence: 42, Views: 2})
	mustPublish(t, h, Position{Env: "lab", Seq: 3, X: 0.5, Y: 0.5, Confidence: 10, Views: 2})
	s := New(WithHub(h))

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/positions", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("positions = %d", rr.Code)
	}
	var got api.PositionsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	// Latest per environment, env-sorted.
	if len(got.Positions) != 2 || got.Positions[0].Env != "hall" || got.Positions[0].Seq != 8 ||
		got.Positions[1].Env != "lab" {
		t.Fatalf("positions = %+v", got.Positions)
	}
}

func mustPublish(t *testing.T, h *Hub, p Position) {
	t.Helper()
	if err := h.Publish(p); err != nil {
		t.Fatal(err)
	}
}

func TestPprofMounted(t *testing.T) {
	s := New()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", rr.Code)
	}
}

// readSSE reads Server-Sent Events off a stream until n "position"
// events arrived or the deadline passed.
func readSSE(t *testing.T, body *bufio.Reader, n int, deadline time.Duration) []Position {
	t.Helper()
	type res struct {
		ps  []Position
		err error
	}
	ch := make(chan res, 1)
	go func() {
		var out []Position
		var data string
		for len(out) < n {
			line, err := body.ReadString('\n')
			if err != nil {
				ch <- res{out, err}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && data != "":
				var p Position
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					ch <- res{out, err}
					return
				}
				out = append(out, p)
				data = ""
			}
		}
		ch <- res{out, nil}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("SSE read: %v (got %d events)", r.err, len(r.ps))
		}
		return r.ps
	case <-time.After(deadline):
		t.Fatalf("SSE: timed out waiting for %d events", n)
		return nil
	}
}

// TestPositionsSSE: a live subscriber receives the backlog (latest per
// env) and then every newly published fix.
func TestPositionsSSE(t *testing.T) {
	h := NewHub()
	mustPublish(t, h, Position{Env: "hall", Seq: 1, X: 1, Y: 1})
	s := New(WithHub(h))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/positions", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	rd := bufio.NewReader(resp.Body)

	// Backlog first.
	if got := readSSE(t, rd, 1, 5*time.Second); got[0].Seq != 1 {
		t.Fatalf("backlog event = %+v", got[0])
	}
	// Then live fixes. Publish from another goroutine with a delay to
	// prove the stream stays open.
	go func() {
		time.Sleep(50 * time.Millisecond)
		h.Publish(Position{Env: "hall", Seq: 2, X: 2, Y: 2})
		h.Publish(Position{Env: "hall", Seq: 3, X: 3, Y: 3})
	}()
	got := readSSE(t, rd, 2, 5*time.Second)
	if got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("live events = %+v", got)
	}
}

func TestStartShutdown(t *testing.T) {
	s := New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

// TestWALStatusJSON: /api/v1/{env}/wal serves the api.WALStatus the
// environment's hook returns (the fleet adapts wal.WAL.Status), and
// 404s with the standard error envelope when the environment has no
// WAL.
func TestWALStatusJSON(t *testing.T) {
	s := New(WithEnvLookup(func(id string) (EnvHandle, bool) {
		switch id {
		case "site-a":
			return EnvHandle{WALStatus: func() api.WALStatus {
				return api.WALStatus{Segments: 2, Recovered: 7, Fsync: "interval"}
			}}, true
		case "no-wal":
			return EnvHandle{}, true
		}
		return EnvHandle{}, false
	}))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/site-a/wal", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("wal = %d", rr.Code)
	}
	var got api.WALStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Segments != 2 || got.Recovered != 7 || got.Fsync != "interval" {
		t.Fatalf("wal status round-trip = %+v", got)
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/api/v1/site-a/wal", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST wal = %d, want 405", rr.Code)
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/no-wal/wal", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("hookless wal = %d, want 404", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "wal_unavailable") {
		t.Fatalf("error envelope missing code: %s", rr.Body.String())
	}

	// The endpoint participates in bounded-cardinality request counting.
	if endpointLabel("/api/v1/site-a/wal") != "/api/v1/{env}/wal" {
		t.Fatal("/api/v1/{env}/wal not a known endpoint label")
	}
}

// TestClusterEndpoint: /api/v1/cluster serves the hook's view and 404s
// with cluster_unavailable when the daemon is not clustered.
func TestClusterEndpoint(t *testing.T) {
	s := New(WithCluster(func() api.ClusterStatus {
		return api.ClusterStatus{Role: "node", Node: "n1", Epoch: 3, Slots: 16,
			Nodes: []api.NodeInfo{{ID: "n1", Addr: "http://127.0.0.1:1"}}}
	}))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/cluster", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cluster = %d", rr.Code)
	}
	var got api.ClusterStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Role != "node" || got.Node != "n1" || got.Epoch != 3 {
		t.Fatalf("cluster round-trip = %+v", got)
	}

	none := New()
	rr = httptest.NewRecorder()
	none.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/cluster", nil))
	if rr.Code != http.StatusNotFound || !strings.Contains(rr.Body.String(), "cluster_unavailable") {
		t.Fatalf("unclustered /api/v1/cluster = %d %s", rr.Code, rr.Body.String())
	}
	if endpointLabel("/api/v1/cluster") != "/api/v1/cluster" {
		t.Fatal("/api/v1/cluster not a known endpoint label")
	}
}
