#!/bin/sh
# replay-smoke: the durability gate at the binary level. Records a
# simulated run into an ingest WAL, kills dwatchd with SIGKILL
# mid-stream (the crash a durable log exists for), restarts it and
# asserts the WAL recovered via /api/v1/site-a/wal, then replays the capture
# unthrottled twice with dwatch-replay and asserts the fix parity
# hashes agree — the same determinism contract the in-process e2e
# tests pin, but exercised through the real binaries and real files.
set -eu

HTTP_ADDR="${HTTP_ADDR:-127.0.0.1:18081}"
LLRP_ADDR="${LLRP_ADDR:-127.0.0.1:15085}"
WORK="$(mktemp -d)"
WALROOT="$WORK/wal"
ENV=site-a
ENV_DIR="$WORK/envs"
WALDIR="$WALROOT/$ENV"
LOG="$WORK/dwatchd.log"
mkdir -p "$ENV_DIR"
cp "testdata/fleet/$ENV.json" "$ENV_DIR/"

fetch_body() {
    if command -v curl >/dev/null 2>&1; then
        curl -sS --max-time 5 "$1" 2>/dev/null || true
    else
        wget -q -T 5 -O - "$1" 2>/dev/null || true
    fi
}

cleanup() {
    [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building dwatchd and dwatch-replay"
go build -o "$WORK/dwatchd" ./cmd/dwatchd
go build -o "$WORK/dwatch-replay" ./cmd/dwatch-replay

echo "== recording a simulated run into $WALDIR"
"$WORK/dwatchd" -env-dir "$ENV_DIR" -listen "$LLRP_ADDR" -simulate -rounds 200 \
    -wal-dir "$WALROOT" -http "$HTTP_ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait until a healthy number of reports has been appended, then crash.
i=0
until fetch_body "http://$HTTP_ADDR/api/v1/$ENV/wal" |
    grep -Eq '"appended_records": *(1[2-9]|[2-9][0-9]|[0-9]{3,})'; do
    i=$((i + 1))
    if [ "$i" -ge 200 ]; then
        echo "FAIL: WAL never accumulated 12 reports" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd exited before the crash point" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
echo "== crashing dwatchd (SIGKILL)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=

if [ -z "$(ls "$WALDIR"/*.wal 2>/dev/null)" ]; then
    echo "FAIL: no WAL segments survived the crash" >&2
    exit 1
fi
echo "ok: WAL segments on disk"

echo "== restarting dwatchd over the crashed WAL"
"$WORK/dwatchd" -env-dir "$ENV_DIR" -listen "$LLRP_ADDR" \
    -wal-dir "$WALROOT" -http "$HTTP_ADDR" >"$LOG" 2>&1 &
PID=$!

i=0
until fetch_body "http://$HTTP_ADDR/api/v1/$ENV/wal" |
    grep -Eq '"recovered_records": *[1-9]'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "FAIL: restart never reported recovered records" >&2
        fetch_body "http://$HTTP_ADDR/api/v1/$ENV/wal" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd exited during recovery" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
echo "ok: /api/v1/$ENV/wal reports recovery"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=

parity() {
    sed -n 's/.*"fix_parity": *"\([^"]*\)".*/\1/p' "$1"
}

echo "== replaying the WAL unthrottled, twice"
"$WORK/dwatch-replay" -wal-dir "$WALDIR" -config "$ENV_DIR/$ENV.json" -json >"$WORK/run1.json"
"$WORK/dwatch-replay" -wal-dir "$WALDIR" -config "$ENV_DIR/$ENV.json" -json >"$WORK/run2.json"

P1="$(parity "$WORK/run1.json")"
P2="$(parity "$WORK/run2.json")"
if [ -z "$P1" ]; then
    echo "FAIL: replay summary has no fix_parity" >&2
    cat "$WORK/run1.json" >&2
    exit 1
fi
if [ "$P1" != "$P2" ]; then
    echo "FAIL: replay is not deterministic: $P1 != $P2" >&2
    exit 1
fi
echo "ok: fix parity stable across replays ($P1)"

if ! grep -Eq '"fixes": *[1-9]' "$WORK/run1.json"; then
    echo "FAIL: replay produced no fixes" >&2
    cat "$WORK/run1.json" >&2
    exit 1
fi
echo "ok: replay produced fixes"

echo "replay-smoke: PASS"
