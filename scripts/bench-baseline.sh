#!/bin/sh
# bench-baseline.sh — run the allocation/throughput benchmark suite and emit
# a machine-readable BENCH_<date>.json snapshot next to the repo root.
#
# Usage:
#   sh scripts/bench-baseline.sh            # full suite, BENCH_YYYY-MM-DD.json
#   BENCH_SMOKE=1 sh scripts/bench-baseline.sh   # tiny benchtime, temp output
#                                                # (the `make check` wiring)
#   BENCH_OUT=path.json sh scripts/bench-baseline.sh
#
# Each JSON record carries: name, iters, ns_op, b_op, allocs_op and any
# extra b.ReportMetric columns (GFLOP/s, req/s, wire-B/op, ...) under
# "metrics". The file is an array, one object per benchmark line, suitable
# for jq/CI diffing against a committed baseline.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCH_BENCHTIME:-1x}"
PATTERN="${BENCH_PATTERN:-BenchmarkTrainStepAllocs|BenchmarkDetectAllocs|BenchmarkTrainContrastive|BenchmarkDetect$|BenchmarkMatMulSerial|BenchmarkCodecs|BenchmarkBuildOnline|BenchmarkIngest|BenchmarkOffline|BenchmarkNodeFeature|BenchmarkRuleEmbedding|BenchmarkKernels|BenchmarkEmbed|BenchmarkTrainRound|BenchmarkExplain|BenchmarkKernelSHAP|BenchmarkReLU|BenchmarkReadout|BenchmarkSimulate|BenchmarkClean|BenchmarkAggregators|BenchmarkWire|BenchmarkAdamStep}"
OUT="${BENCH_OUT:-BENCH_$(date +%Y-%m-%d).json}"

if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    # Smoke mode: prove the harness runs and parses end-to-end without
    # paying full benchmark time; write to a throwaway file.
    PATTERN="BenchmarkTrainStepAllocs|BenchmarkDetectAllocs"
    OUT="$(mktemp /tmp/fexiot-bench.XXXXXX.json)"
fi

RAW="$(mktemp /tmp/fexiot-bench-raw.XXXXXX)"
trap 'rm -f "$RAW"' EXIT

echo "bench-baseline: pattern=$PATTERN benchtime=$BENCHTIME -> $OUT" >&2

# -benchmem makes every line carry B/op and allocs/op; benches that also
# call b.ReportMetric append their extra columns after those.
go test -run XXX -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" \
    ./... 2>/dev/null | grep '^Benchmark' | tee "$RAW" >&2

[ -s "$RAW" ] || { echo "bench-baseline: no benchmark output" >&2; exit 1; }

awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""; bop = ""; aop = ""; extra = ""
    for (i = 3; i < NF; i++) {
        unit = $(i + 1)
        if (unit == "ns/op")          { ns  = $i; i++ }
        else if (unit == "B/op")      { bop = $i; i++ }
        else if (unit == "allocs/op") { aop = $i; i++ }
        else if (unit !~ /^[0-9.+-]/) {
            gsub(/"/, "", unit)
            extra = extra (extra == "" ? "" : ", ") "\"" unit "\": " $i
            i++
        }
    }
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"iters\": %s", name, iters
    if (ns  != "") printf ", \"ns_op\": %s", ns
    if (bop != "") printf ", \"b_op\": %s", bop
    if (aop != "") printf ", \"allocs_op\": %s", aop
    if (extra != "") printf ", \"metrics\": {%s}", extra
    printf "}"
}
END { print "\n]" }
' "$RAW" >"$OUT"

# JSON sanity: the file must parse (python3 is in the base image; skip the
# check quietly if it ever is not).
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$OUT"
fi

n=$(grep -c '"name"' "$OUT" || true)
echo "bench-baseline: wrote $n records to $OUT" >&2
[ "$n" -gt 0 ]
