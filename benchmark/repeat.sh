#!/usr/bin/env bash
# Two full sets of runs, back to back at the same commit, held against each
# other with the benchmark's own bounds: ten runs per workload per set, each
# with another seed, exactly what the driver does. Exits 0 only when every
# run of both sets succeeded and every end-to-end metric of every workload
# agrees within its bound and resolves.
#
#   benchmark/repeat.sh [runs-per-workload (10)] [seconds-per-run (8)]
#
# Builds the way BENCHMARK.json's command does, against the stand-in crates;
# where the registry is reachable, drop `--config benchmark/offline.toml` and
# `--offline` here and there alike. Leaves benchmark/out/set_A.json and
# set_B.json.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
seconds="${2:-8}"
cargo --config benchmark/offline.toml build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
mkdir -p benchmark/out
log=benchmark/out/repeat.log
for set in A B; do
  rm -f "benchmark/out/set_$set.json"
  for workload in rt_sparse rt_dense des_fleet cluster_failover; do
    for seed in $(seq 1 "$runs"); do
      # a run that fails, by exit code or by panic, ends the script
      if ! "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --append "benchmark/out/set_$set.json" >"$log" 2>&1; then
        cat "$log"
        echo "repeat.sh: set $set, $workload, seed $seed failed" >&2
        exit 1
      fi
    done
  done
done
"$bin" compare benchmark/out/set_A.json benchmark/out/set_B.json
