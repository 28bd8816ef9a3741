#!/usr/bin/env bash
# Build and run the micro-benchmarks and write machine-readable reports
# (google-benchmark JSON format):
#   BENCH_kernels.json — scalar/dispatched kernel pairs (GEMM, dot, L1, the
#     float ScoreTails scans and the int8 ScanDotI8/ScanL1I8 scans), the
#     top-K group completion pair and the evaluator's per-triple/
#     query-batched pair, so the speedup claims in DESIGN.md can be
#     re-derived from the JSON alone;
#   BENCH_train.json — trainer throughput (triples/sec) at 1/2/4 threads in
#     both hogwild and deterministic modes;
#   BENCH_serving.json — the one-shot serving scenarios: BM_AnnTopK (exact
#     vs IVF+int8 uncached top-10: QPS, speedup, recall@10) and
#     BM_ShardedServe (OBGSNAP2 store build/open time, cold vs warm QPS,
#     resident bytes against an 8 MiB budget).
# Each file's "context" records the machine (num_cpus, caches), the commit,
# the build type and the active SIMD backend ("isa"). The context's
# "library_build_type" describes the installed libbenchmark, not this build.
# Usage: scripts/run_benches.sh [extra benchmark args...]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE=Release
OUT="${OUT:-BENCH_kernels.json}"
TRAIN_OUT="${TRAIN_OUT:-BENCH_train.json}"
SERVING_OUT="${SERVING_OUT:-BENCH_serving.json}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
cmake --build "$BUILD_DIR" -j"$(nproc)" --target micro_benchmarks

COMMIT="$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)"

run() {  # run <filter> <out> [extra args...]
  local filter="$1" out="$2"
  shift 2
  "$BUILD_DIR"/bench/micro_benchmarks \
    --benchmark_filter="$filter" \
    --benchmark_context=commit="$COMMIT",build_type="$BUILD_TYPE" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    "$@"
  echo "Wrote $out"
}

run 'BM_Gemm|BM_DotKernel|BM_L1DistanceKernel|BM_ScoreTails|BM_FilteredEvaluation|BM_ScanDotI8|BM_ScanL1I8|BM_TopKGroupCompletion' \
  "$OUT" "$@"
run 'BM_Train' "$TRAIN_OUT" "$@"
# The serving scenarios run exactly once each (->Iterations(1)), so the
# passthrough args, which tune repetitions and min time, do not apply.
run 'BM_AnnTopK|BM_ShardedServe' "$SERVING_OUT"
