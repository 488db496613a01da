#!/usr/bin/env bash
# What a checkout can verify with no crate registry in reach (the builder
# sandbox) — and what CI's `benchmark-harness` job runs, so a library API
# change that breaks the benchmark harness fails before the benchmark does.
#
#   1. build the harness against the stand-in crates under benchmark/vendor:
#      this type-checks all six library crates and every library call the
#      harness makes (run_multi_pipeline_rt, spawn_filter_stage,
#      FeedbackQueue::new, SimQueue::new, StageTelemetry::register,
#      QueueTelemetry::register, ...);
#   2. run the harness's unit tests;
#   3. run all four workloads for one second each: a run exits non-zero on
#      any failed operation, i.e. unless every stream's survivors equal
#      `cascade_pass` over the bank's trace of the same frames — in the RT
#      engine (rt_sparse, rt_dense), the DES (des_fleet) and the cluster's
#      checkpoint-resumed epochs across a crash (cluster_failover).
#
# Nothing under benchmark/ is modified; build products land in
# $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail
cd "$(dirname "$0")/.."

offline=(--config benchmark/offline.toml)
manifest=(--release --offline --manifest-path benchmark/Cargo.toml)
cargo "${offline[@]}" build "${manifest[@]}"
cargo "${offline[@]}" test "${manifest[@]}"

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
for workload in rt_sparse rt_dense des_fleet cluster_failover; do
  "$bin" run --workload "$workload" --seed 1 --seconds 1
done
echo "offline-check: ok"
