package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/api/adapt"
	"dwatch/internal/health"
	"dwatch/internal/tracing"
)

// The multi-tenant routes. One serve plane fronts a whole fleet of
// environments: /api/v1/envs lists them, and every per-deployment
// endpoint is reachable env-scoped as /api/v1/{env}/... . The serve
// plane stays decoupled from internal/fleet the same way it is
// decoupled from the pipeline: it sees an env listing hook and a
// lookup hook returning per-env handles, nothing more.
//
// The root routes serve aggregates: /api/v1/positions the latest fix
// of every environment, /api/v1/stats one snapshot per environment.
// /api/v1/traces and /api/v1/health serve a process-wide tracer and
// monitor when one is set (dwatch-replay -http).

// EnvHandle bundles one environment's per-deployment hooks for the
// env-scoped routes. Absent fields degrade exactly like the
// process-wide Options fields (404 envelope with the matching code).
type EnvHandle struct {
	Info      EnvInfo
	Stats     func() api.PipelineStats
	Tracer    *tracing.Tracer
	Health    *health.Monitor
	WALStatus func() api.WALStatus
}

// WithEnvs supplies the /api/v1/envs listing hook.
func WithEnvs(fn func() []EnvInfo) Option { return func(o *Options) { o.Envs = fn } }

// WithEnvLookup supplies the env-scoped route lookup: id → handle.
func WithEnvLookup(fn func(id string) (EnvHandle, bool)) Option {
	return func(o *Options) { o.Env = fn }
}

// WithHub feeds the position endpoints (legacy aggregate and
// env-scoped) from the snapshot+delta broadcast hub.
func WithHub(h *Hub) Option { return func(o *Options) { o.Hub = h } }

// handleEnvRoutes dispatches /api/v1/{env}/<endpoint>. The endpoint
// set mirrors the legacy single-deployment API; anything else gets the
// uniform 404 envelope (instead of ServeMux's plain-text default).
func (s *Server) handleEnvRoutes(w http.ResponseWriter, r *http.Request) {
	rest := r.PathValue("rest")
	switch {
	case rest == "positions":
		s.handleEnvPositions(w, r)
	case rest == "stats":
		s.handleEnvStats(w, r)
	case rest == "health":
		s.handleEnvHealth(w, r)
	case rest == "wal":
		s.handleEnvWAL(w, r)
	case rest == "traces":
		s.handleEnvTraces(w, r)
	case strings.HasPrefix(rest, "traces/") && !strings.Contains(rest[len("traces/"):], "/"):
		s.handleEnvTrace(w, r, rest[len("traces/"):])
	default:
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown endpoint %q under /api/v1/{env}/", rest))
	}
}

func (s *Server) handleEnvs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/envs", r.Method))
		return
	}
	if s.opts.Envs == nil {
		writeError(w, http.StatusNotFound, "envs_unavailable",
			"no environment registry configured on this deployment")
		return
	}
	writeJSON(w, api.EnvsResponse{Envs: s.opts.Envs()})
}

// lookupEnv resolves the {env} path value, writing the uniform error
// envelope (and returning false) when the fleet hooks are absent or
// the environment does not exist.
func (s *Server) lookupEnv(w http.ResponseWriter, r *http.Request) (EnvHandle, string, bool) {
	id := r.PathValue("env")
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/{env} routes", r.Method))
		return EnvHandle{}, id, false
	}
	if s.opts.Env == nil {
		writeError(w, http.StatusNotFound, "envs_unavailable",
			"no environment registry configured on this deployment")
		return EnvHandle{}, id, false
	}
	h, ok := s.opts.Env(id)
	if !ok {
		writeError(w, http.StatusNotFound, "env_not_found",
			fmt.Sprintf("environment %q is not registered on this fleet", id))
		return EnvHandle{}, id, false
	}
	return h, id, true
}

func (s *Server) handleEnvPositions(w http.ResponseWriter, r *http.Request) {
	_, id, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if s.opts.Hub == nil {
		writeError(w, http.StatusNotFound, "positions_unavailable",
			"no position hub configured on this deployment")
		return
	}
	if wantsEventStream(r) {
		s.streamHub(w, r, id)
		return
	}
	positions := []Position{}
	if p, ok := s.opts.Hub.LatestForEnv(id); ok {
		positions = append(positions, p)
	}
	writeJSON(w, api.PositionsResponse{Positions: positions})
}

func (s *Server) handleEnvStats(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if h.Stats == nil {
		writeError(w, http.StatusNotFound, "stats_unavailable",
			fmt.Sprintf("no stats hook configured for environment %q", id))
		return
	}
	writeJSON(w, h.Stats())
}

func (s *Server) handleEnvHealth(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if h.Health == nil {
		writeError(w, http.StatusNotFound, "health_unavailable",
			fmt.Sprintf("no RF-health monitor configured for environment %q", id))
		return
	}
	writeJSON(w, adapt.RFHealth(h.Health.Snapshot()))
}

func (s *Server) handleEnvWAL(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if h.WALStatus == nil {
		writeError(w, http.StatusNotFound, "wal_unavailable",
			fmt.Sprintf("no ingest WAL configured for environment %q", id))
		return
	}
	writeJSON(w, h.WALStatus())
}

func (s *Server) handleEnvTraces(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if h.Tracer == nil {
		writeError(w, http.StatusNotFound, "traces_unavailable",
			fmt.Sprintf("no tracer configured for environment %q", id))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := tracing.WriteChrome(w, h.Tracer.Snapshots()); err != nil {
			s.logf("traces: %v", err)
		}
		return
	}
	writeJSON(w, api.TracesResponse{Traces: adapt.TraceSummaries(h.Tracer.Traces())})
}

func (s *Server) handleEnvTrace(w http.ResponseWriter, r *http.Request, id string) {
	h, envID, ok := s.lookupEnv(w, r)
	if !ok {
		return
	}
	if h.Tracer == nil {
		writeError(w, http.StatusNotFound, "traces_unavailable",
			fmt.Sprintf("no tracer configured for environment %q", envID))
		return
	}
	d, ok := h.Tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace_not_found",
			fmt.Sprintf("trace %q is not retained in environment %q", id, envID))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := tracing.WriteChrome(w, []tracing.Data{d}); err != nil {
			s.logf("traces: %v", err)
		}
		return
	}
	writeJSON(w, adapt.Trace(d))
}

// streamHub serves an SSE position feed from the hub: the latest fix
// per covered environment first, then every new frame as it publishes.
// env == "" streams the whole fleet (the legacy /api/v1/positions
// behavior). Frames are pre-marshaled by Publish, so each write is a
// copy of shared bytes — the per-subscriber cost is exactly the fanout
// bytes.
func (s *Server) streamHub(w http.ResponseWriter, r *http.Request, env string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "stream_unsupported",
			"response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	watcher := s.opts.Hub.Watch(env)
	defer watcher.Close()
	for _, data := range watcher.Snapshot() {
		if err := writeFrame(w, data); err != nil {
			return
		}
	}
	fl.Flush()
	keepalive := s.opts.SSEKeepalive
	if keepalive <= 0 {
		keepalive = 15 * time.Second
	}
	for {
		// Next with a keepalive-bounded context: a quiet feed wakes up
		// once per interval to emit the comment frame proxies need.
		ctx, cancel := context.WithTimeout(r.Context(), keepalive)
		frames, err := watcher.Next(ctx)
		cancel()
		if err != nil {
			if r.Context().Err() != nil {
				return // client hung up
			}
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for _, data := range frames {
			if err := writeFrame(w, data); err != nil {
				return
			}
		}
		fl.Flush()
	}
}

func writeFrame(w http.ResponseWriter, data []byte) error {
	_, err := fmt.Fprintf(w, "event: position\ndata: %s\n\n", data)
	return err
}
