#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: generate a tiny dataset,
# compute the sequential single-engine oracle totals, start `paracosm
# serve`, drive it with `paracosm client` (register + subscribe + stream
# + flush), and require the streamed delta totals to equal the oracle.
# Also checks the serving-layer /metrics gauges, the /queries debug
# endpoint and `paracosm top` against the live standing queries — the
# streaming client's, and a second one over labels the stream never pairs,
# which the dispatch index accounts in bulk: both must show every streamed
# update — and graceful shutdown on SIGTERM. Exits non-zero on any failure;
# CI runs this as a gating step.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-17400}"
DBG_PORT="${SERVE_SMOKE_DEBUG_PORT:-18081}"
ADDR="127.0.0.1:${PORT}"
DBG="127.0.0.1:${DBG_PORT}"
WORK="$(mktemp -d)"
trap 'kill "${CLI_PID:-}" "${IDLE_PID:-}" "${SRV_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== gendata =="
go run ./cmd/gendata -out "$WORK" -scale 0.001

echo "== build =="
go build -o "$WORK/paracosm" ./cmd/paracosm
QUERY="$(ls "$WORK"/query_*.txt | head -1)"
STREAM="$WORK/insertion_stream.txt"

echo "== sequential oracle =="
"$WORK/paracosm" \
    -data "$WORK/data_graph.txt" -query "$QUERY" -stream "$STREAM" \
    -algo GraphFlow -threads 1 -inter=false >"$WORK/oracle.out"
ORACLE="$(sed -n 's/^matches *: \(+[0-9]* \/ -[0-9]*\).*/\1/p' "$WORK/oracle.out")"
echo "oracle matches: $ORACLE"

echo "== serve on $ADDR =="
"$WORK/paracosm" serve -data "$WORK/data_graph.txt" -addr "$ADDR" \
    -threads 2 -debug-addr "$DBG" >"$WORK/serve.out" 2>&1 &
SRV_PID=$!

ok=""
for _ in $(seq 1 60); do
    if curl -sf "http://$DBG/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "serve exited before becoming healthy:" >&2
        cat "$WORK/serve.out" >&2
        exit 1
    fi
    sleep 0.5
done
if [ -z "$ok" ]; then
    echo "serve never became healthy" >&2
    cat "$WORK/serve.out" >&2
    exit 1
fi

echo "== idle client: a standing query no update can touch =="
# Vertex labels the generated graph does not have, so no update's endpoint
# labels pair up to its one edge. It streams nothing and lingers.
printf 'v 0 4000001\nv 1 4000002\ne 0 1 0\n' >"$WORK/idle_query.txt"
"$WORK/paracosm" client -addr "$ADDR" -name idle -algo GraphFlow \
    -query "$WORK/idle_query.txt" -linger 60s >"$WORK/idle.out" &
IDLE_PID=$!
ok=""
for _ in $(seq 1 120); do
    grep -q '^accepted' "$WORK/idle.out" 2>/dev/null && ok=1 && break
    if ! kill -0 "$IDLE_PID" 2>/dev/null; then
        echo "idle client exited before registering:" >&2
        cat "$WORK/idle.out" >&2
        exit 1
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "idle client never registered" >&2; exit 1; }

echo "== client: register, subscribe, stream, flush =="
# -linger keeps the connection (and therefore the registered standing
# query) alive after the totals print, so the /queries and `paracosm
# top` checks below observe a live query. Totals appear before the
# linger, so poll for them.
"$WORK/paracosm" client -addr "$ADDR" -name smoke -algo GraphFlow \
    -query "$QUERY" -stream "$STREAM" -subscribe -linger 60s \
    >"$WORK/client.out" &
CLI_PID=$!
ok=""
for _ in $(seq 1 120); do
    if grep -q '^matches' "$WORK/client.out" 2>/dev/null; then
        ok=1
        break
    fi
    if ! kill -0 "$CLI_PID" 2>/dev/null; then
        echo "client exited before reporting totals:" >&2
        cat "$WORK/client.out" >&2
        exit 1
    fi
    sleep 0.5
done
if [ -z "$ok" ]; then
    echo "client never reported totals" >&2
    cat "$WORK/client.out" >&2
    exit 1
fi
cat "$WORK/client.out"
GOT="$(sed -n 's/^matches *: \(+[0-9]* \/ -[0-9]*\).*/\1/p' "$WORK/client.out")"
grep -q 'dropped 0' "$WORK/client.out"

if [ "$GOT" != "$ORACLE" ]; then
    echo "streamed delta totals '$GOT' != sequential oracle '$ORACLE'" >&2
    exit 1
fi
echo "delta totals match the sequential oracle: $GOT"

echo "== /metrics serving-layer gauges =="
curl -s "http://$DBG/metrics" | tee "$WORK/metrics.txt" | grep '^paracosm_server_' | head
grep -q '^paracosm_server_connections' "$WORK/metrics.txt"
grep -q '^paracosm_server_deltas_dropped_total' "$WORK/metrics.txt"
ING="$(sed -n 's/^paracosm_server_updates_ingested_total \([0-9][0-9]*\)$/\1/p' "$WORK/metrics.txt")"
if [ "${ING:-0}" -le 0 ]; then
    echo "no updates ingested per /metrics" >&2
    exit 1
fi
# Per-query labeled series: the lingering client keeps "smoke" live.
grep -q '^paracosm_query_updates{name="smoke"}' "$WORK/metrics.txt"
# Pipeline stage histograms fed by the serving path.
grep -q '^paracosm_stage_commit_seconds_count' "$WORK/metrics.txt"

grep -q '^paracosm_dispatch_visited_total' "$WORK/metrics.txt"
grep -q '^paracosm_dispatch_skipped_total' "$WORK/metrics.txt"

echo "== /queries accounts every streamed update to both standing queries =="
curl -s "http://$DBG/queries?by=name" | tee "$WORK/queries.json"
# field NAME KEY: the integer KEY of query NAME's row.
field() {
    awk -F': ' -v name="$1" -v key="$2" '
        $1 ~ /"name"$/ { gsub(/[",]/, "", $2); cur = $2 }
        cur == name && $1 ~ "\"" key "\"$" { gsub(/,/, "", $2); print $2; exit }
    ' "$WORK/queries.json"
}
ACCEPTED="$(sed -n 's/^accepted *: \([0-9][0-9]*\)$/\1/p' "$WORK/client.out")"
if [ "${ACCEPTED:-0}" -le 0 ]; then
    echo "client streamed no updates" >&2
    exit 1
fi
for qname in smoke idle; do
    QUPD="$(field "$qname" updates)"
    QVIS="$(field "$qname" visited)"
    if [ "${QUPD:-x}" != "$ACCEPTED" ]; then
        echo "query '$qname' shows ${QUPD:-no} updates in /queries, the client streamed $ACCEPTED" >&2
        exit 1
    fi
    echo "query '$qname' accounts all $QUPD updates, visited for ${QVIS:-?}"
done
# Visited and bulk-accounted together make up the total; the idle query was
# spared (at least some of) the stream and matched nothing.
if [ "$(field idle matches)" != "0" ] || [ "$(field idle visited)" -ge "$ACCEPTED" ]; then
    echo "query 'idle': matches $(field idle matches), visited $(field idle visited) of $ACCEPTED" >&2
    exit 1
fi

echo "== paracosm top (one shot) =="
"$WORK/paracosm" top -addr "$DBG" -n 5 -once | tee "$WORK/top.out"
grep -q 'QUERY' "$WORK/top.out"
grep -q 'VISITED' "$WORK/top.out"
grep -q 'smoke' "$WORK/top.out"

kill "$CLI_PID" "$IDLE_PID" 2>/dev/null || true
wait "$CLI_PID" "$IDLE_PID" 2>/dev/null || true
CLI_PID=""
IDLE_PID=""

echo "== graceful shutdown (SIGTERM) =="
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""
grep -q 'shutting down' "$WORK/serve.out"
grep -q 'ingested' "$WORK/serve.out"

echo "serve smoke OK"
