#!/usr/bin/env bash
# The full pre-merge gauntlet: the default build (-Wall -Wextra, every
# warning an error), its test suite and a bench CLI guard, then the
# AddressSanitizer, ThreadSanitizer, and UBSan presets (each in its own
# build tree, see check_asan.sh / check_tsan.sh / check_ubsan.sh for scope
# notes — the TSan run excludes the documented hogwild benign races), then
# the chaos sweep: the randomized fault-injection harness across five
# distinct seeds under both the default and TSan builds.
# Usage: scripts/check_all.sh [extra ctest args for the default run...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> default build (warnings are errors) + tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" "$@"

echo "==> bench CLI guard: strict flags, and the moved serving scenarios run"
# util::Flags exits 2 on an unknown flag rather than running with defaults.
if ./build/bench/table1_kg_stats --no-such-flag >/dev/null 2>&1; then
  echo "table1_kg_stats accepted an unknown flag" >&2
  exit 1
fi
# The BENCH_serving.json scenarios are in no test suite, so run them once.
# A scenario that fails its build or open prints no counters.
serving="$(./build/bench/micro_benchmarks \
  --benchmark_filter='BM_AnnTopK|BM_ShardedServe')"
echo "${serving}"
grep -q 'recall_at_10=' <<<"${serving}"
grep -q 'store_ok=1' <<<"${serving}"

echo "==> AddressSanitizer"
scripts/check_asan.sh

echo "==> ThreadSanitizer"
scripts/check_tsan.sh

echo "==> UndefinedBehaviorSanitizer"
scripts/check_ubsan.sh

echo "==> sharded-store leg: snapshot + OBGSNAP2 suites, default + ASan"
# The out-of-core path gets an explicit pass on top of the full-suite runs
# above: the container format and parity/corruption sweeps under the default
# build and ASan (check_ubsan.sh runs them, and every other suite, under
# UBSan).
ctest --test-dir build --output-on-failure -R '^(snapshot_test|sharded_store_test)$'
ctest --test-dir build-asan --output-on-failure -R '^(snapshot_test|sharded_store_test)$'

echo "==> chaos sweep: 5 seeds, default + TSan"
for seed in 101 202 303 404 505; do
  echo "--> chaos seed ${seed} (default)"
  OPENBG_CHAOS_SEED="${seed}" ./build/tests/chaos_test
  echo "--> chaos seed ${seed} (tsan)"
  OPENBG_CHAOS_SEED="${seed}" ./build-tsan/tests/chaos_test
done

echo "==> drain repeat gate: 200 runs each, every one ending in a clean EOF"
# A drained connection must end in whole frames and FIN, never RST (the
# lingering close in Server::CloseConn). One passing run can be timing
# luck; 200 in a row cannot.
./build/tests/net_test \
  --gtest_filter='NetE2ETest.ShutdownUnderTornWritesStillEndsInWholeFrames' \
  --gtest_repeat=200
./build/tests/chaos_test \
  --gtest_filter='ChaosTest.NetFaultSweepFragmentsButNeverTearsFrames' \
  --gtest_repeat=200

echo "==> ANN recall gate (recall@10 >= 0.99 at the pruned operating point)"
./build/tests/ann_test --gtest_filter='AnnRecallGate.*'

echo "==> net smoke: example_server --smoke under ASan and TSan"
# The socket front-end's end-to-end exercise on an ephemeral port: three
# pipelined tenants (one rate-limited so shedding happens), a mid-stream
# canary mirror -> promote, graceful stop. Exit 0 requires every request
# id answered exactly once with whole frames; the sanitizers must stay
# silent across the epoll loop, the cross-thread flush queues, and the
# canary's publish seam.
./build-asan/examples/example_server --smoke
./build-tsan/examples/example_server --smoke

echo "==> all checks passed"
