#!/usr/bin/env bash
# Builds the whole tree under AddressSanitizer + UndefinedBehaviorSanitizer
# and runs the full ctest suite.
#
# Usage: tools/run_asan_tests.sh [build-dir]
#
# Unlike the TSan pass (tools/run_tsan_tests.sh), which targets the
# multi-threaded code, memory and UB errors can hide anywhere, so every
# test runs. UBSan is told to halt on its first report (by default it only
# prints), so any sanitizer report fails the test that raised it. The
# build uses -Werror: the tree compiles warning-free, and a new warning
# fails the pass instead of scrolling by.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-Werror \
  -DCOPART_SANITIZE=address

cmake --build "$BUILD_DIR" -j "$(nproc)"

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure
