#!/bin/sh
# obs-smoke: end-to-end smoke test of the observability subsystem against
# the real binaries. Runs a two-client federation with fexserver -http,
# scrapes /metrics and /statusz from the live server, and fails if either
# endpoint is empty or the acceptance metrics are missing; then starts
# fexserve, sends one /v1/explain and fails unless the explanation-search
# counters moved. `make obs-smoke` runs this as part of `make check`.
set -eu

WORKDIR=$(mktemp -d)
SERVER_LOG="$WORKDIR/server.log"
cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "${C0_PID:-}" ] && kill "$C0_PID" 2>/dev/null || true
    [ -n "${C1_PID:-}" ] && kill "$C1_PID" 2>/dev/null || true
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "obs-smoke: building binaries..."
go build -o "$WORKDIR/fexserver" ./cmd/fexserver
go build -o "$WORKDIR/fexclient" ./cmd/fexclient

# The federation port must be known up front (clients dial it); reserve a
# free one. The obs port can stay :0 — the server prints the resolved
# address.
FED_ADDR=127.0.0.1:$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')

# -codec q8 makes the federation negotiate quantised deltas, so the scrape
# below can assert the compression metrics on a live run, not just their
# TYPE lines.
"$WORKDIR/fexserver" -addr "$FED_ADDR" -clients 2 -rounds 3 -layers 4 \
    -codec q8 -http 127.0.0.1:0 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Poll the log until the resolved obs address appears.
OBS_ADDR=""
for _ in $(seq 1 100); do
    OBS_ADDR=$(sed -n 's#^obs listening on http://##p' "$SERVER_LOG" | head -n1)
    [ -n "$OBS_ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "obs-smoke: server died:"; cat "$SERVER_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$OBS_ADDR" ] || { echo "obs-smoke: no obs address in server log"; cat "$SERVER_LOG"; exit 1; }
echo "obs-smoke: federation on $FED_ADDR, observability on $OBS_ADDR"

# Scrape while idle: the endpoints must serve before round 0.
curl -sf "http://$OBS_ADDR/metrics" >"$WORKDIR/metrics.early" \
    || { echo "obs-smoke: /metrics unreachable"; exit 1; }
[ -s "$WORKDIR/metrics.early" ] || { echo "obs-smoke: /metrics empty"; exit 1; }

# A two-client federation. Client 1 trains on enough contrastive pairs
# that each round lasts long enough for the scrape loop to observe the
# counter advancing before the server exits.
"$WORKDIR/fexclient" -addr "$FED_ADDR" -id 0 -archetype security \
    -graphs 8 -pairs 4 >"$WORKDIR/c0.log" 2>&1 &
C0_PID=$!
"$WORKDIR/fexclient" -addr "$FED_ADDR" -id 1 -archetype climate \
    -graphs 12 -pairs 300 >"$WORKDIR/c1.log" 2>&1 &
C1_PID=$!

# Scrape mid-run: the server exits once the federation completes, so the
# live endpoints must be read while rounds close. Keep the last successful
# capture and stop as soon as the round counter has visibly advanced (with
# -rounds 3, counter 1 means whole rounds still remain to scrape in).
SCRAPED=""
Q8SEEN=""
for _ in $(seq 1 2400); do
    if curl -sf "http://$OBS_ADDR/metrics" >"$WORKDIR/metrics.tmp" 2>/dev/null \
        && [ -s "$WORKDIR/metrics.tmp" ]; then
        mv "$WORKDIR/metrics.tmp" "$WORKDIR/metrics.txt"
        curl -sf "http://$OBS_ADDR/statusz" >"$WORKDIR/statusz.json" 2>/dev/null || true
        if grep -q '^fexiot_rounds_completed_total [1-9]' "$WORKDIR/metrics.txt"; then
            SCRAPED=yes
            # Round 0 goes dense (no shared base yet); keep scraping until a
            # round-1+ quantised update shows up under codec="q8".
            if grep -q 'fexiot_update_encoded_bytes_total{codec="q8"} [1-9]' "$WORKDIR/metrics.txt"; then
                Q8SEEN=yes
                break
            fi
        fi
    elif ! kill -0 "$SERVER_PID" 2>/dev/null; then
        break
    fi
done

wait "$C0_PID" || { echo "obs-smoke: client 0 failed:"; cat "$WORKDIR/c0.log"; exit 1; }
C0_PID=""
wait "$C1_PID" || { echo "obs-smoke: client 1 failed:"; cat "$WORKDIR/c1.log"; exit 1; }
C1_PID=""
wait "$SERVER_PID" || { echo "obs-smoke: server failed:"; cat "$SERVER_LOG"; exit 1; }
SERVER_PID=""

[ -s "$WORKDIR/metrics.txt" ] || { echo "obs-smoke: never scraped a non-empty /metrics"; exit 1; }
[ -s "$WORKDIR/statusz.json" ] || { echo "obs-smoke: never scraped a non-empty /statusz"; exit 1; }
[ -n "$SCRAPED" ] || { echo "obs-smoke: round counter never advanced on /metrics"; \
    grep fexiot_rounds "$WORKDIR/metrics.txt" || true; exit 1; }

for metric in fexiot_round_duration_seconds fexiot_round_responders \
    fexiot_clients_evicted_total fexiot_bytes_received_total \
    fexiot_update_encoded_bytes_total fexiot_update_raw_bytes_total \
    fexiot_update_compression_ratio; do
    grep -q "^# TYPE $metric " "$WORKDIR/metrics.txt" \
        || { echo "obs-smoke: $metric missing from /metrics"; cat "$WORKDIR/metrics.txt"; exit 1; }
done

# The q8 federation must have produced observable compression: a quantised
# update accepted under codec="q8" and a populated ratio histogram.
[ -n "$Q8SEEN" ] || { echo "obs-smoke: no q8-encoded update ever appeared on /metrics"; \
    grep fexiot_update "$WORKDIR/metrics.txt" || true; exit 1; }
grep -q '^fexiot_update_compression_ratio_count [1-9]' "$WORKDIR/metrics.txt" \
    || { echo "obs-smoke: compression-ratio histogram empty"; \
         grep fexiot_update_compression "$WORKDIR/metrics.txt" || true; exit 1; }
grep -q '"go_version"' "$WORKDIR/statusz.json" \
    || { echo "obs-smoke: /statusz is not a status snapshot"; cat "$WORKDIR/statusz.json"; exit 1; }

# The serving side: one /v1/explain against a freshly trained fexserve must
# move the explanation-search counters — score calls, and the rows of the
# first and the last GNN layer (GIN's three: "0" and "2"), both computed
# and reused (the search's per-layer memo at work).
go build -o "$WORKDIR/fexserve" ./cmd/fexserve
"$WORKDIR/fexserve" -addr 127.0.0.1:0 -homes 4 -rules 16 -graphs 2 \
    -rounds 1 -pairs 30 -sample "$WORKDIR/explain.json" >"$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 300); do
    SERVE_ADDR=$(sed -n 's#^fexserve listening on http://##p' "$WORKDIR/serve.log" | head -n1)
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "obs-smoke: fexserve died:"; cat "$WORKDIR/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "obs-smoke: no listen address in fexserve log"; cat "$WORKDIR/serve.log"; exit 1; }
code=$(curl -s -o "$WORKDIR/explain.out" -w '%{http_code}' -H 'Content-Type: application/json' \
    --data-binary @"$WORKDIR/explain.json" "http://$SERVE_ADDR/v1/explain" || echo 000)
[ "$code" = 200 ] || { echo "obs-smoke: /v1/explain returned $code:"; cat "$WORKDIR/explain.out"; exit 1; }
curl -sf "http://$SERVE_ADDR/metrics" >"$WORKDIR/serve-metrics.txt" \
    || { echo "obs-smoke: fexserve /metrics unreachable"; exit 1; }
for series in 'fexiot_explain_score_calls_total' \
    'fexiot_explain_layer_rows_total{layer="0",result="computed"}' \
    'fexiot_explain_layer_rows_total{layer="0",result="reused"}' \
    'fexiot_explain_layer_rows_total{layer="2",result="computed"}' \
    'fexiot_explain_layer_rows_total{layer="2",result="reused"}'; do
    grep -qF "$series " "$WORKDIR/serve-metrics.txt" \
        && grep -F "$series " "$WORKDIR/serve-metrics.txt" | grep -q ' [1-9][0-9]*$' \
        || { echo "obs-smoke: $series did not move after one /v1/explain:"; \
             grep fexiot_explain "$WORKDIR/serve-metrics.txt" || true; exit 1; }
done
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "obs-smoke: OK (rounds advancing, q8 compression metrics live, /statusz live, explain counters live)"
