#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# — Go's build cache, module cache and config directory (telemetry counters)
# are pointed there too, so nothing outside the checkout is written — and
# runs it from the repository root with the given arguments.
# This is BENCHMARK.json's command:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
  XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local
(cd bench && go build -o "$root/.bench_build/fexbench" .)
# One core (see main.go): a Go runtime that starts with one P repeats better
# than one that starts with nproc and shrinks, so it is set here too.
GOMAXPROCS=1 exec "$root/.bench_build/fexbench" "$@"
