#!/usr/bin/env bash
# Prometheus exposition lint: boot `paracosm serve` with a debug
# endpoint on a generated dataset, scrape /metrics before and after
# driving client traffic, and validate both scrapes with
# cmd/metricslint — well-formed names and label escaping, unique
# series, one TYPE per metric, and monotone `_total` counters across
# the two scrapes. Exits non-zero on any violation; CI runs this as a
# gating step.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${METRICS_LINT_PORT:-17410}"
DBG_PORT="${METRICS_LINT_DEBUG_PORT:-18091}"
ADDR="127.0.0.1:${PORT}"
DBG="127.0.0.1:${DBG_PORT}"
WORK="$(mktemp -d)"
trap 'kill "${CLI_PID:-}" "${SRV_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== gendata =="
go run ./cmd/gendata -out "$WORK" -scale 0.001

echo "== build =="
go build -o "$WORK/paracosm" ./cmd/paracosm
go build -o "$WORK/metricslint" ./cmd/metricslint
QUERY="$(ls "$WORK"/query_*.txt | head -1)"
STREAM="$WORK/insertion_stream.txt"

echo "== serve on $ADDR =="
# -window turns on window coalescing so the coalesce stage histogram moves
# between the two scrapes (monotonicity is then checked on live, not
# frozen-at-zero, series); -wal-dir turns on the durability
# layer so the paracosm_wal_* series are linted live too.
"$WORK/paracosm" serve -data "$WORK/data_graph.txt" -addr "$ADDR" \
    -threads 2 -window 8 -wal-dir "$WORK/wal" -snapshot-every 500 \
    -debug-addr "$DBG" >"$WORK/serve.out" 2>&1 &
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

echo "== scrape 1 (idle) =="
curl -sf "http://$DBG/metrics" >"$WORK/scrape1.txt"
wc -l "$WORK/scrape1.txt"

echo "== client traffic =="
# A query name with label-hostile characters exercises EscapeLabel on
# the per-query labeled series; -linger keeps the query registered so
# scrape 2 sees those series live.
"$WORK/paracosm" client -addr "$ADDR" -name 'q"lint\1' -algo GraphFlow \
    -query "$QUERY" -stream "$STREAM" -subscribe -linger 60s \
    >"$WORK/client.out" &
CLI_PID=$!
ok=""
for _ in $(seq 1 120); do
    grep -q '^matches' "$WORK/client.out" 2>/dev/null && ok=1 && break
    if ! kill -0 "$CLI_PID" 2>/dev/null; then
        echo "client exited before reporting totals:" >&2
        cat "$WORK/client.out" >&2
        exit 1
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "client never reported totals" >&2; exit 1; }
grep '^matches' "$WORK/client.out"

echo "== scrape 2 (after traffic, query live) =="
curl -sf "http://$DBG/metrics" >"$WORK/scrape2.txt"
wc -l "$WORK/scrape2.txt"
grep -q '^paracosm_query_updates{name="q\\"lint' "$WORK/scrape2.txt"
# The client's stream must have gone through the coalescing pre-pass: the
# coalesce stage takes one sample per window (paracosm_window_coalesced_total
# may stay 0: an insertion-only stream has nothing to coalesce).
awk '/^paracosm_stage_coalesce_seconds_count /{n=$2} END{exit n>0?0:1}' "$WORK/scrape2.txt" \
    || { echo "paracosm_stage_coalesce_seconds_count did not move under -window traffic" >&2; exit 1; }
# The WAL must have logged every accepted update.
awk '/^paracosm_wal_records_total /{n=$2} END{exit n>0?0:1}' "$WORK/scrape2.txt" \
    || { echo "paracosm_wal_records_total did not move under -wal-dir traffic" >&2; exit 1; }

echo "== metricslint =="
"$WORK/metricslint" "$WORK/scrape1.txt" "$WORK/scrape2.txt"

kill "$CLI_PID" 2>/dev/null || true
wait "$CLI_PID" 2>/dev/null || true
CLI_PID=""

kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""

echo "metrics lint OK"
