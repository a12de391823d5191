#!/usr/bin/env bash
# asan.sh — ASan+UBSan build of the BDD, GC, parallel, fault-tolerance,
# journal and fleet suites, to catch the memory errors a moving collector
# can introduce (stale Refs, table over-reads), the signed-sentinel
# indexing of the fault-tolerance checker's failing-region DAGs, and slot
# lifetimes in the unit sweep's replay and fleet fold, which functional
# tests may survive by luck. UBSan findings abort the test binary
# (-fno-sanitize-recover), so they fail this stage.
#
# Usage: tools/ci/asan.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build-asan}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNV_WERROR="${NV_WERROR:-OFF}" \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
cmake --build "$BUILD_DIR" -j"$JOBS" \
  --target bdd_tests gc_tests parallel_tests governor_tests serve_tests \
  fault_tolerance_tests journal_tests fleet_tests
"./$BUILD_DIR/tests/bdd_tests"
"./$BUILD_DIR/tests/gc_tests"
"./$BUILD_DIR/tests/parallel_tests"
"./$BUILD_DIR/tests/governor_tests"
"./$BUILD_DIR/tests/serve_tests"
"./$BUILD_DIR/tests/fault_tolerance_tests"
"./$BUILD_DIR/tests/journal_tests"
"./$BUILD_DIR/tests/fleet_tests"
