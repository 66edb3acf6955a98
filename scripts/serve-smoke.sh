#!/bin/sh
# serve-smoke: end-to-end smoke test of the snapshot-isolated serving
# engine against the real fexserve binary. Starts the server with a short
# background republish cadence, drives a concurrent curl storm at
# /v1/detect while fresh snapshots publish underneath it, and fails on any
# non-2xx response, a stalled publish counter, or missing fexiot_serve_*
# metrics. A second, deliberately undersized instance (-workers 1 -queue 1)
# is then saturated to prove fast-fail load shedding: surplus requests get
# 429 + Retry-After, the shed counter advances, and non-shed requests stay
# 2xx. Health probes (/healthz, /readyz) are asserted on the trained
# instance. `make serve-smoke` runs this as part of `make check`.
set -eu

WORKDIR=$(mktemp -d)
SERVER_LOG="$WORKDIR/server.log"
cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "${SHED_PID:-}" ] && kill "$SHED_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building fexserve..."
go build -o "$WORKDIR/fexserve" ./cmd/fexserve

# A compact training run keeps startup fast; -republish retrains and
# atomically swaps the live snapshot every 300ms — the storm below runs
# straight through several of those swap windows.
"$WORKDIR/fexserve" -addr 127.0.0.1:0 -homes 4 -rules 16 -graphs 2 \
    -rounds 1 -pairs 30 -republish 300ms \
    -sample "$WORKDIR/detect.json" >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Poll the log until the resolved address appears.
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^fexserve listening on http://##p' "$SERVER_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died:"; cat "$SERVER_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-smoke: no listen address in server log"; cat "$SERVER_LOG"; exit 1; }
[ -s "$WORKDIR/detect.json" ] || { echo "serve-smoke: sample request body never written"; exit 1; }
echo "serve-smoke: serving on $ADDR"

# One warm-up detect plus one explain: both endpoints must answer 200
# before the storm starts.
for endpoint in detect explain; do
    code=$(curl -s -o "$WORKDIR/$endpoint.out" -w '%{http_code}' \
        -H 'Content-Type: application/json' \
        --data-binary @"$WORKDIR/detect.json" "http://$ADDR/v1/$endpoint" || echo 000)
    [ "$code" = 200 ] || { echo "serve-smoke: /v1/$endpoint returned $code:"; \
        cat "$WORKDIR/$endpoint.out"; exit 1; }
done
grep -q '"snapshot_seq"' "$WORKDIR/detect.out" \
    || { echo "serve-smoke: detect response has no snapshot_seq:"; cat "$WORKDIR/detect.out"; exit 1; }

# Health probes: a trained, publishing server must be both live and ready.
for probe in healthz readyz; do
    code=$(curl -s -o "$WORKDIR/$probe.out" -w '%{http_code}' "http://$ADDR/$probe" || echo 000)
    [ "$code" = 200 ] || { echo "serve-smoke: /$probe returned $code:"; \
        cat "$WORKDIR/$probe.out"; exit 1; }
    grep -q '"status":"ok"' "$WORKDIR/$probe.out" \
        || { echo "serve-smoke: /$probe body not ok:"; cat "$WORKDIR/$probe.out"; exit 1; }
done
echo "serve-smoke: /healthz and /readyz are 200 ok"

published() {
    curl -sf "http://$ADDR/metrics" 2>/dev/null \
        | sed -n 's/^fexiot_serve_snapshots_published_total //p' | head -n1
}
BASE=$(published)
[ -n "$BASE" ] || { echo "serve-smoke: fexiot_serve_snapshots_published_total missing"; exit 1; }

# The storm: four workers POST /v1/detect in a tight loop until told to
# stop, logging every status code. Meanwhile the main shell waits for the
# publish counter to advance at least twice past the baseline, proving the
# swaps landed while requests were in flight.
STOP="$WORKDIR/stop"
storm() {
    n=0
    while [ ! -f "$STOP" ] && [ "$n" -lt 2000 ]; do
        curl -s -o /dev/null -w '%{http_code}\n' \
            -H 'Content-Type: application/json' \
            --data-binary @"$WORKDIR/detect.json" \
            "http://$ADDR/v1/detect" >>"$WORKDIR/codes.$1" || echo 000 >>"$WORKDIR/codes.$1"
        n=$((n+1))
    done
}
storm 1 & W1=$!
storm 2 & W2=$!
storm 3 & W3=$!
storm 4 & W4=$!

ADVANCED=""
for _ in $(seq 1 300); do
    NOW=$(published)
    if [ -n "$NOW" ] && [ "$(printf '%.0f' "$NOW")" -ge "$(($(printf '%.0f' "$BASE") + 2))" ]; then
        ADVANCED=yes
        break
    fi
    sleep 0.1
done
touch "$STOP"
wait "$W1" "$W2" "$W3" "$W4"

[ -n "$ADVANCED" ] || { echo "serve-smoke: publish counter never advanced past $BASE"; \
    cat "$SERVER_LOG"; exit 1; }

TOTAL=$(cat "$WORKDIR"/codes.* | wc -l)
BAD=$(grep -cv '^2' "$WORKDIR"/codes.* 2>/dev/null | awk -F: '{s+=$2} END {print s+0}')
[ "$TOTAL" -ge 8 ] || { echo "serve-smoke: storm only issued $TOTAL requests"; exit 1; }
[ "$BAD" -eq 0 ] || { echo "serve-smoke: $BAD of $TOTAL storm requests were non-2xx:"; \
    sort "$WORKDIR"/codes.* | uniq -c; exit 1; }

# The serve metric families must all be live on /metrics, and so must the
# matrix-arena family (training + the storm's inference both lease from it).
curl -sf "http://$ADDR/metrics" >"$WORKDIR/metrics.txt"
for metric in fexiot_serve_request_duration_seconds fexiot_serve_inflight \
    fexiot_serve_queue_depth fexiot_serve_snapshot_age_seconds \
    fexiot_serve_snapshot_seq fexiot_serve_snapshots_published_total \
    fexiot_mat_arena_leases_total fexiot_mat_arena_hits_total \
    fexiot_mat_arena_bytes_pooled; do
    grep -q "^# TYPE $metric " "$WORKDIR/metrics.txt" \
        || { echo "serve-smoke: $metric missing from /metrics"; cat "$WORKDIR/metrics.txt"; exit 1; }
done
grep -q '^fexiot_mat_arena_leases_total [1-9]' "$WORKDIR/metrics.txt" \
    || { echo "serve-smoke: arena never leased (counter zero or missing):"; \
         grep fexiot_mat_arena "$WORKDIR/metrics.txt" || true; exit 1; }
grep -q '^fexiot_serve_request_duration_seconds_count{endpoint="detect"} [1-9]' "$WORKDIR/metrics.txt" \
    || { echo "serve-smoke: no detect latency samples recorded"; \
         grep fexiot_serve_request "$WORKDIR/metrics.txt" || true; exit 1; }
# Every request so far sent the canonical sample: the one-pass decoder must
# have answered all of them without encoding/json.
grep -q '^fexiot_serve_decode_fallback_total 0$' "$WORKDIR/metrics.txt" \
    || { echo "serve-smoke: canonical sample bodies took the encoding/json path:"; \
         grep fexiot_serve_decode "$WORKDIR/metrics.txt" || true; exit 1; }

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- Overload stage: an undersized instance (-workers 1 -queue 1) under a
# sustained concurrent storm must fast-fail the surplus with 429 +
# Retry-After while fexiot_serve_shed_total advances — and every non-shed
# request must still be 2xx (shedding never corrupts accepted work).
SHED_LOG="$WORKDIR/shed.log"
"$WORKDIR/fexserve" -addr 127.0.0.1:0 -homes 4 -rules 16 -graphs 2 \
    -rounds 1 -pairs 30 -workers 1 -queue 1 \
    -sample "$WORKDIR/shed.json" >"$SHED_LOG" 2>&1 &
SHED_PID=$!

SHED_ADDR=""
for _ in $(seq 1 300); do
    SHED_ADDR=$(sed -n 's#^fexserve listening on http://##p' "$SHED_LOG" | head -n1)
    [ -n "$SHED_ADDR" ] && break
    kill -0 "$SHED_PID" 2>/dev/null || { echo "serve-smoke: shed server died:"; cat "$SHED_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$SHED_ADDR" ] || { echo "serve-smoke: no listen address in shed server log"; cat "$SHED_LOG"; exit 1; }
echo "serve-smoke: overload instance on $SHED_ADDR (workers=1 queue=1)"

shed_total() {
    curl -sf "http://$SHED_ADDR/metrics" 2>/dev/null \
        | sed -n 's/^fexiot_serve_shed_total //p' | head -n1
}

# Eight concurrent loops against a single worker with a one-slot queue:
# each logs "<code> <retry-after>" per request so we can assert both the
# 429s and the header in one pass.
SHED_STOP="$WORKDIR/shed-stop"
shed_storm() {
    n=0
    while [ ! -f "$SHED_STOP" ] && [ "$n" -lt 2000 ]; do
        curl -s -o /dev/null -w '%{http_code} %header{retry-after}\n' \
            -H 'Content-Type: application/json' \
            --data-binary @"$WORKDIR/shed.json" \
            "http://$SHED_ADDR/v1/detect" >>"$WORKDIR/shedcodes.$1" \
            || echo '000 -' >>"$WORKDIR/shedcodes.$1"
        n=$((n+1))
    done
}
for i in 1 2 3 4 5 6 7 8; do shed_storm "$i" & eval "S$i=\$!"; done

SHED_SEEN=""
for _ in $(seq 1 200); do
    NOW=$(shed_total)
    if [ -n "$NOW" ] && [ "$(printf '%.0f' "$NOW")" -ge 1 ]; then
        SHED_SEEN=yes
        break
    fi
    sleep 0.1
done
touch "$SHED_STOP"
wait "$S1" "$S2" "$S3" "$S4" "$S5" "$S6" "$S7" "$S8"

[ -n "$SHED_SEEN" ] || { echo "serve-smoke: fexiot_serve_shed_total never advanced under overload"; \
    sort "$WORKDIR"/shedcodes.* | uniq -c; cat "$SHED_LOG"; exit 1; }

REJECTED=$(grep -c '^429' "$WORKDIR"/shedcodes.* 2>/dev/null | awk -F: '{s+=$2} END {print s+0}')
ACCEPTED=$(grep -c '^2' "$WORKDIR"/shedcodes.* 2>/dev/null | awk -F: '{s+=$2} END {print s+0}')
OTHER=$(grep -cv '^2\|^429' "$WORKDIR"/shedcodes.* 2>/dev/null | awk -F: '{s+=$2} END {print s+0}')
[ "$REJECTED" -ge 1 ] || { echo "serve-smoke: shed counter advanced but no 429 observed"; \
    sort "$WORKDIR"/shedcodes.* | uniq -c; exit 1; }
[ "$ACCEPTED" -ge 1 ] || { echo "serve-smoke: overload storm had zero accepted requests"; \
    sort "$WORKDIR"/shedcodes.* | uniq -c; exit 1; }
[ "$OTHER" -eq 0 ] || { echo "serve-smoke: $OTHER non-2xx/non-429 responses under overload:"; \
    sort "$WORKDIR"/shedcodes.* | uniq -c; exit 1; }
grep -q '^429 1' "$WORKDIR"/shedcodes.* \
    || { echo "serve-smoke: 429s missing the Retry-After header:"; \
         grep '^429' "$WORKDIR"/shedcodes.* | sort | uniq -c; exit 1; }

kill "$SHED_PID" 2>/dev/null || true
wait "$SHED_PID" 2>/dev/null || true
SHED_PID=""

echo "serve-smoke: OK ($TOTAL storm requests all 2xx across ≥2 snapshot swaps, serve metrics live;" \
    "overload shed $REJECTED/$((REJECTED + ACCEPTED)) with 429 + Retry-After, $ACCEPTED accepted stayed 2xx)"
