#!/usr/bin/env bash
# Configure, build, and run the whole test suite under
# UndefinedBehaviorSanitizer in a dedicated build tree. halt_on_error turns
# the first report into a test failure, so a passing run means no suite
# executed undefined behaviour — the mmap'd sharded-store reads and the
# byte decoders included.
# Usage: scripts/check_ubsan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Release -DOPENBG_SANITIZE=undefined
cmake --build build-ubsan -j"$(nproc)"

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" "$@"
