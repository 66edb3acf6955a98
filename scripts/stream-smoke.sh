#!/bin/sh
# stream-smoke: end-to-end smoke test of the streaming detection sessions
# against the real fexserve binary. Starts the server with a short
# background republish cadence, opens a session with the -sample rule set,
# feeds it the -stream-sample NDJSON batch (attack-injected simulator
# events), and reads the rolling verdict across at least two republishes —
# the reported snapshot_seq must advance while the refusion count stays
# put (republishes re-score, they never re-fuse). The structured /v1 error
# envelope is asserted on the unhappy paths (unknown id, wrong verb, wrong
# Content-Type, bad NDJSON), the fexiot_stream_* metric family must be
# live, and DELETE must drop the session gauge back to zero.
# `make stream-smoke` runs this as part of `make check`.
set -eu

WORKDIR=$(mktemp -d)
SERVER_LOG="$WORKDIR/server.log"
cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "stream-smoke: building fexserve..."
go build -o "$WORKDIR/fexserve" ./cmd/fexserve

# Compact training, 300ms republish cadence, and both sample files: the
# detect sample doubles as the stream-create body, the stream sample is the
# NDJSON batch.
"$WORKDIR/fexserve" -addr 127.0.0.1:0 -homes 4 -rules 16 -graphs 2 \
    -rounds 1 -pairs 30 -republish 300ms \
    -window-events 100000 -window-age 1000000 \
    -sample "$WORKDIR/detect.json" -stream-sample "$WORKDIR/events.ndjson" \
    >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^fexserve listening on http://##p' "$SERVER_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "stream-smoke: server died:"; cat "$SERVER_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "stream-smoke: no listen address in server log"; cat "$SERVER_LOG"; exit 1; }
[ -s "$WORKDIR/detect.json" ] || { echo "stream-smoke: detect sample never written"; exit 1; }
[ -s "$WORKDIR/events.ndjson" ] || { echo "stream-smoke: NDJSON sample never written"; exit 1; }
echo "stream-smoke: serving on $ADDR ($(wc -l < "$WORKDIR/events.ndjson") sample events)"

code_of() { # code_of OUTFILE METHOD URL [CT] [BODYFILE]
    out=$1; method=$2; url=$3; ct=${4:-}; bodyfile=${5:-}
    set -- -s -o "$out" -w '%{http_code}' -X "$method"
    [ -n "$ct" ] && set -- "$@" -H "Content-Type: $ct"
    [ -n "$bodyfile" ] && set -- "$@" --data-binary @"$bodyfile"
    curl "$@" "$url" || echo 000
}

json_field() { # json_field FILE FIELD — first numeric/string value of "field"
    sed -n 's/.*"'"$2"'":\([^,}]*\).*/\1/p' "$1" | head -n1 | tr -d '"'
}

# --- Session lifecycle -------------------------------------------------

code=$(code_of "$WORKDIR/create.out" POST "http://$ADDR/v1/streams" \
    application/json "$WORKDIR/detect.json")
[ "$code" = 201 ] || { echo "stream-smoke: create returned $code:"; cat "$WORKDIR/create.out"; exit 1; }
SID=$(json_field "$WORKDIR/create.out" id)
[ -n "$SID" ] || { echo "stream-smoke: create reply has no id:"; cat "$WORKDIR/create.out"; exit 1; }
echo "stream-smoke: session $SID created"

code=$(code_of "$WORKDIR/ingest.out" POST "http://$ADDR/v1/streams/$SID/events" \
    application/x-ndjson "$WORKDIR/events.ndjson")
[ "$code" = 200 ] || { echo "stream-smoke: ingest returned $code:"; cat "$WORKDIR/ingest.out"; exit 1; }
INGESTED=$(json_field "$WORKDIR/ingest.out" ingested)
[ "$INGESTED" -ge 1 ] || { echo "stream-smoke: ingest reported $INGESTED events:"; cat "$WORKDIR/ingest.out"; exit 1; }

code=$(code_of "$WORKDIR/v1.out" GET "http://$ADDR/v1/streams/$SID")
[ "$code" = 200 ] || { echo "stream-smoke: verdict returned $code:"; cat "$WORKDIR/v1.out"; exit 1; }
SEQ1=$(json_field "$WORKDIR/v1.out" snapshot_seq)
REF1=$(json_field "$WORKDIR/v1.out" refusions)
NODES=$(json_field "$WORKDIR/v1.out" nodes)
[ "$NODES" -ge 1 ] || { echo "stream-smoke: verdict fused an empty graph:"; cat "$WORKDIR/v1.out"; exit 1; }
echo "stream-smoke: rolling verdict at seq=$SEQ1 nodes=$NODES refusions=$REF1"

# Wait for the snapshot sequence to advance at least twice past the first
# read; each poll must re-score on the fresh snapshot without re-fusing.
ADVANCED=""
for _ in $(seq 1 300); do
    sleep 0.1
    code=$(code_of "$WORKDIR/v2.out" GET "http://$ADDR/v1/streams/$SID")
    [ "$code" = 200 ] || { echo "stream-smoke: verdict poll returned $code:"; cat "$WORKDIR/v2.out"; exit 1; }
    SEQ2=$(json_field "$WORKDIR/v2.out" snapshot_seq)
    if [ "$SEQ2" -ge $((SEQ1 + 2)) ]; then ADVANCED=yes; break; fi
done
[ -n "$ADVANCED" ] || { echo "stream-smoke: snapshot_seq never advanced past $SEQ1"; \
    cat "$SERVER_LOG"; exit 1; }
REF2=$(json_field "$WORKDIR/v2.out" refusions)
[ "$REF2" = "$REF1" ] || { echo "stream-smoke: republish caused a refusion ($REF1 -> $REF2)"; \
    cat "$WORKDIR/v2.out"; exit 1; }
echo "stream-smoke: verdict tracked republishes seq $SEQ1 -> $SEQ2 with refusions pinned at $REF2"

# /v1/status must report the live session.
code=$(code_of "$WORKDIR/status.out" GET "http://$ADDR/v1/status")
[ "$code" = 200 ] || { echo "stream-smoke: /v1/status returned $code"; exit 1; }
grep -q '"stream_sessions":1' "$WORKDIR/status.out" \
    || { echo "stream-smoke: /v1/status not counting the session:"; cat "$WORKDIR/status.out"; exit 1; }

# The canonical samples (create body, NDJSON batch) are the plain shape the
# one-pass decoder answers: none of them may have needed encoding/json.
fallbacks() {
    curl -sf "http://$ADDR/metrics" | sed -n 's/^fexiot_serve_decode_fallback_total //p'
}
[ "$(fallbacks)" = 0 ] || { echo "stream-smoke: decode fallbacks = '$(fallbacks)' after" \
    "the canonical samples, want 0"; exit 1; }

# --- Structured error envelope ----------------------------------------

expect_code() { # expect_code WANT_HTTP WANT_CODE METHOD URL [CT] [BODYFILE]
    want=$1; wantcode=$2; shift 2
    got=$(code_of "$WORKDIR/err.out" "$@")
    [ "$got" = "$want" ] || { echo "stream-smoke: $2 $3 returned $got, want $want:"; \
        cat "$WORKDIR/err.out"; exit 1; }
    grep -q '"code":"'"$wantcode"'"' "$WORKDIR/err.out" \
        || { echo "stream-smoke: $2 $3 envelope missing code $wantcode:"; \
             cat "$WORKDIR/err.out"; exit 1; }
}

expect_code 404 not_found GET "http://$ADDR/v1/streams/no-such-session"
expect_code 404 not_found GET "http://$ADDR/v1/nope"
expect_code 405 method_not_allowed GET "http://$ADDR/v1/streams"
expect_code 415 unsupported_media_type POST "http://$ADDR/v1/streams" text/csv "$WORKDIR/detect.json"
printf '{broken\n' >"$WORKDIR/bad.ndjson"
expect_code 400 bad_request POST "http://$ADDR/v1/streams/$SID/events" \
    application/x-ndjson "$WORKDIR/bad.ndjson"
[ "$(fallbacks)" = 1 ] || { echo "stream-smoke: decode fallbacks = '$(fallbacks)' after" \
    "one malformed batch, want 1"; exit 1; }
echo "stream-smoke: error envelope codes verified (404/405/415/400), decode fallbacks 0 -> 1"

# --- Metrics and teardown ----------------------------------------------

curl -sf "http://$ADDR/metrics" >"$WORKDIR/metrics.txt"
for metric in fexiot_stream_sessions fexiot_stream_events_total \
    fexiot_stream_refusions_total fexiot_stream_feature_cache_hits_total \
    fexiot_stream_verdict_lag_seconds; do
    grep -q "^# TYPE $metric " "$WORKDIR/metrics.txt" \
        || { echo "stream-smoke: $metric missing from /metrics"; exit 1; }
done
grep -q '^fexiot_stream_sessions 1' "$WORKDIR/metrics.txt" \
    || { echo "stream-smoke: session gauge not 1:"; \
         grep fexiot_stream "$WORKDIR/metrics.txt"; exit 1; }

code=$(code_of "$WORKDIR/del.out" DELETE "http://$ADDR/v1/streams/$SID")
[ "$code" = 200 ] || { echo "stream-smoke: delete returned $code:"; cat "$WORKDIR/del.out"; exit 1; }
expect_code 404 not_found GET "http://$ADDR/v1/streams/$SID"
curl -sf "http://$ADDR/metrics" | grep -q '^fexiot_stream_sessions 0' \
    || { echo "stream-smoke: session gauge not back to 0 after delete"; exit 1; }

echo "stream-smoke: OK (session $SID: $INGESTED events, verdict tracked" \
    "seq $SEQ1->$SEQ2 across republishes, envelope + metrics verified, clean delete)"
