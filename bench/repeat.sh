#!/usr/bin/env bash
# bench/repeat.sh [N] [first_seed] [seed_step] [trace]
#
# Runs every workload N times (default 5) back to back and prints, per
# workload × end-to-end metric, the median, the quartiles (as Python's
# statistics.quantiles(values, n=4) gives them) and their distance as a
# share of the median. Exits 1 if a spread exceeds the metric's bound in
# BENCHMARK.json or a run was incorrect.
#
# Seeds are first_seed, first_seed+seed_step, … (defaults 1 and 1: another
# seed each time, which is how the acceptance pipeline runs it; seed_step 0
# repeats one seed and shows the machine's noise alone).
set -euo pipefail
n="${1:-5}" first="${2:-1}" step="${3:-1}" trace="${4:-0}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/.*{"name": *"\([a-z_]*\)", *"why".*/\1/p' BENCHMARK.json)"
out="bench/out/repeat"
rm -rf "$out" && mkdir -p "$out"
for w in $workloads; do
  for i in $(seq 0 $((n - 1))); do
    seed=$((first + i * step))
    echo "== $w run $((i + 1))/$n seed $seed" >&2
    bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      > "$out/$w-$i.txt" || { tail -5 "$out/$w-$i.txt" >&2; echo "run failed" >&2; exit 1; }
  done
done
exec .bench_build/fexbench -summarize "$out"/*.txt
