#!/bin/sh
# serve-smoke: boot dwatchd -simulate with the observability plane and
# verify the endpoints a monitoring stack scrapes, then boot dwatchd
# -chaos and watch /readyz follow a dialed reader's outage and
# recovery. Exercises the real binary over real TCP — the curl-level
# counterpart to the httptest coverage in internal/serve, and the only
# binary-level gate on dialed (supervised) ingest. Both runs serve a
# one-file env dir made from testdata/fleet/site-a.json.
set -eu

HTTP_ADDR="${HTTP_ADDR:-127.0.0.1:18080}"
LLRP_ADDR="${LLRP_ADDR:-127.0.0.1:15084}"
BIN_DIR="$(mktemp -d)"
BIN="$BIN_DIR/dwatchd"
LOG="$(mktemp)"
ENV_DIR="$BIN_DIR/envs"
ENV=site-a
mkdir -p "$ENV_DIR"
cp "testdata/fleet/$ENV.json" "$ENV_DIR/"

# The JSON assertions below go through the typed dwatch-api CLI, which
# strict-decodes every body into the internal/api contract structs —
# the smoke consumes the same shapes the Go clients do.
api() { "$BIN_DIR/dwatch-api" -base "http://$HTTP_ADDR" "$@"; }

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS --max-time 5 "$1"
    elif command -v wget >/dev/null 2>&1; then
        wget -q -T 5 -O - "$1"
    else
        echo "serve-smoke: neither curl nor wget available" >&2
        exit 1
    fi
}

# fetch_body tolerates non-200 responses: /readyz bodies matter even
# while the plane answers 503.
fetch_body() {
    if command -v curl >/dev/null 2>&1; then
        curl -sS --max-time 5 "$1"
    else
        wget -q -T 5 -O - "$1" 2>/dev/null || true
    fi
}

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$BIN_DIR"
    rm -f "$LOG"
}
trap cleanup EXIT INT TERM

echo "== building dwatchd and dwatch-api"
go build -o "$BIN" ./cmd/dwatchd
go build -o "$BIN_DIR/dwatch-api" ./cmd/dwatch-api

echo "== starting dwatchd -env-dir $ENV_DIR -simulate -http $HTTP_ADDR"
"$BIN" -env-dir "$ENV_DIR" -listen "$LLRP_ADDR" -simulate -rounds 200 -http "$HTTP_ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the plane to come up.
i=0
until fetch "http://$HTTP_ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "FAIL: plane never served /healthz" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd exited early" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
echo "ok: /healthz"

# Metrics must be valid Prometheus exposition with pipeline families.
METRICS="$(fetch "http://$HTTP_ADDR/metrics")"
for want in \
    "# TYPE dwatch_pipeline_reports_total counter" \
    "# TYPE dwatch_stage_duration_seconds histogram" \
    "# TYPE dwatch_http_requests_total counter"; do
    if ! printf '%s\n' "$METRICS" | grep -Fq "$want"; then
        echo "FAIL: /metrics missing: $want" >&2
        exit 1
    fi
done
echo "ok: /metrics"

# Stats must strict-decode as the api.PipelineStats contract on the
# env-scoped route.
STATS="$(api stats "$ENV")"
if ! printf '%s\n' "$STATS" | grep -q '"ReportsIn"'; then
    echo "FAIL: stats lack ReportsIn: $STATS" >&2
    exit 1
fi
echo "ok: /api/v1/$ENV/stats (strict api.PipelineStats)"

# A served position must carry a trace_id (schema 3) that resolves to
# a full per-sequence trace with a fuse-stage span.
i=0
TID=""
while [ -z "$TID" ]; do
    TID="$(api positions "$ENV" 2>/dev/null |
        tr ',' '\n' | grep '"trace_id"' | head -n 1 |
        sed 's/.*"trace_id": *"\([^"]*\)".*/\1/')" || true
    [ -n "$TID" ] && break
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "FAIL: no position with a trace_id appeared" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
TRACE="$(api trace "$ENV" "$TID")"
for want in '"outcome": "fix"' '"stage": "fuse"' '"stage": "spectrum"'; do
    if ! printf '%s\n' "$TRACE" | grep -Fq "$want"; then
        echo "FAIL: trace $TID missing $want: $TRACE" >&2
        exit 1
    fi
done
echo "ok: /api/v1/$ENV/traces/{id} (strict api.Trace)"

# RF health must report live read rates per reader.
HEALTH="$(api health "$ENV")"
for want in '"readers"' '"rate_hz"' '"angle_deg"'; do
    if ! printf '%s\n' "$HEALTH" | grep -Fq "$want"; then
        echo "FAIL: health missing $want: $HEALTH" >&2
        exit 1
    fi
done
echo "ok: /api/v1/$ENV/health (strict api.RFHealth)"

# Readiness flips once the simulated readers confirm their baselines.
i=0
until fetch "http://$HTTP_ADDR/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "FAIL: /readyz never turned ready" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
echo "ok: /readyz"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=

# Phase 2: chaos driver. dwatchd dials in-process simulated readers
# through its environment's supervisor, kills one mid-run, and restarts
# it; /readyz must report the outage (a reader down, fusion degraded)
# and then the recovery.
echo "== starting dwatchd -env-dir $ENV_DIR -chaos -http $HTTP_ADDR"
"$BIN" -env-dir "$ENV_DIR" -chaos -chaos-flap 3s -rounds 40 -http "$HTTP_ADDR" >"$LOG" 2>&1 &
PID=$!

i=0
until fetch_body "http://$HTTP_ADDR/readyz" | grep -q '"ready": true'; do
    i=$((i + 1))
    if [ "$i" -ge 150 ]; then
        echo "FAIL: supervised /readyz never turned ready" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd -chaos exited early" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
echo "ok: supervised /readyz ready"

# Down: the flapped reader shows up as non-up state + degraded flag.
i=0
until fetch_body "http://$HTTP_ADDR/readyz" | grep -q '"degraded": true'; do
    i=$((i + 1))
    if [ "$i" -ge 150 ]; then
        echo "FAIL: /readyz never reported the outage" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
echo "ok: /readyz reports outage (degraded quorum)"

# Up again: the supervisor reconnects and the degraded flag clears.
i=0
until fetch_body "http://$HTTP_ADDR/readyz" | grep -q '"degraded": false'; do
    i=$((i + 1))
    if [ "$i" -ge 200 ]; then
        echo "FAIL: /readyz never recovered after the flap" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd -chaos exited before recovery was observed" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
echo "ok: /readyz recovered (reader reconnected)"

echo "serve-smoke: PASS"
