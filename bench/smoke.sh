#!/usr/bin/env bash
# bench/smoke.sh — runs every workload in -short mode (every phase under a
# second, one set-up, the same code paths and correctness gates), plus one
# traced run, and checks that each result line carries exactly the metric
# names BENCHMARK.json declares. About 20 s; meant for `make check`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# names <section>: the "name" values of one array of BENCHMARK.json.
names() {
  sed -n "/\"$1\": \[/,/^  \]/p" BENCHMARK.json | sed -n 's/.*{"name": *"\([^"]*\)".*/\1/p'
}

# check <file> <section>: every result line of the file has every metric of
# the section and nothing else, and is correct with no failed operation.
check() {
  local lines want
  lines="$(grep '^{"correct"' "$1")"
  [ -n "$lines" ] || { echo "smoke: no result line in $1" >&2; return 1; }
  want="$(names "$2" | sort | tr '\n' ' ')"
  while IFS= read -r line; do
    case "$line" in
      '{"correct":true,'*'"failed":0,'*) ;;
      *) echo "smoke: incorrect run: ${line:0:120}" >&2; return 1 ;;
    esac
    got="$(printf '%s' "$line" | grep -o '"[^"]*":{"value"' | sed 's/^"\([^"]*\)".*/\1/' | sort | tr '\n' ' ')"
    [ "$got" = "$want" ] || { echo "smoke: $2 metrics differ: got [$got] want [$want]" >&2; return 1; }
  done <<<"$lines"
}

mkdir -p bench/out
bash bench/run.sh --workload all --seed 1 --short --trace 0 > bench/out/smoke-e2e.txt
check bench/out/smoke-e2e.txt end_to_end
[ "$(grep -c '^{"correct"' bench/out/smoke-e2e.txt)" = "$(names workloads | wc -l)" ] ||
  { echo "smoke: not every workload reported" >&2; exit 1; }
bash bench/run.sh --workload detect_http --seed 1 --short --trace 1 > bench/out/smoke-trace.txt
check bench/out/smoke-trace.txt per_layer
[ -s bench/out/trace-detect_http.json ] || { echo "smoke: no trace file" >&2; exit 1; }
echo "smoke: ok"
