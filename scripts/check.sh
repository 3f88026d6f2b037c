#!/usr/bin/env bash
# CI entry point: configure with warnings-as-errors, build everything, run
# rac-analyze over the source trees, then the full test suite.
# Usage: scripts/check.sh [build-dir]
#
# Optional phases (each builds its own <build-dir>-<suffix> tree):
#   RAC_TSAN=1  ThreadSanitizer (-DRAC_TSAN=ON); runs the suites labeled
#               `concurrency` (thread pool, parallel determinism goldens,
#               sharded fleet).
#   RAC_SAN=1   AddressSanitizer + UBSan (-DRAC_ASAN=ON -DRAC_UBSAN=ON);
#               runs the FULL test suite under both.
#   RAC_AUDIT=1 heavyweight invariant audits (-DRAC_AUDIT=ON); runs the
#               full suite with RAC_AUDIT blocks live.
#   RAC_ALLOC_HOOK=1 allocation counting (-DRAC_ALLOC_HOOK=ON); builds and
#               runs rl_tests and core_tests, whose heap-budget tests (the
#               TD learner's per-retrain scratch bound, the agent's
#               per-checkpoint bound,
#               RacAgent.LoadPolicySharesTheLibraryTableInsteadOfCopyingIt,
#               the agent's policy-load bound, and
#               TabulatedSurface.PredictionAllocatesNothing, a policy
#               prediction's zero-allocation bound) GTEST_SKIP in every
#               build without the counting operator new.
#   RAC_FAULT_SAN=1 fault-injection suites under ASan+UBSan
#               (-DRAC_ASAN=ON -DRAC_UBSAN=ON); runs the tests labeled
#               `fault` -- a cheap focused pass for the injection decorator,
#               the degradation paths and the seeded mutation fuzzer over
#               the five on-disk loaders (LoaderFuzz.*) when the full
#               RAC_SAN sweep is too slow for the pipeline.
#   RAC_FLEET_SMOKE=1 fleet smoke: run the fleet-scale bench in quick
#               mode (256 tenants through a mid-run context switch, serial
#               vs 4-thread). The binary exits non-zero when the two runs'
#               decision digests or fleet checkpoints differ, so this
#               phase is a fast standalone determinism gate for the
#               sharded control plane.
#   RAC_TRAFFIC_SMOKE=1 traffic smoke: run the dynamic-traffic bench in
#               quick mode (diurnal + flash crowd + mix drift day). The
#               binary exits non-zero when the flash-crowd seed scan or
#               either SLA gate (RL beats the best static configuration,
#               which is no worse than the default) fails. The traffic
#               determinism contract is pinned by ctest, not here.
#   RAC_BENCH_SMOKE=1 bench smoke: run the gated bench suite in quick
#               mode with RAC_BENCH_REPORT on (scripts/bench_trajectory.py
#               sweep) and print the aggregated entry. Catches benches
#               that crash, stop emitting reports, or lose their
#               decision-trace digest without waiting for a full-size
#               sweep. (The regression *gate* already runs inside ctest
#               above as `bench_regression_check`.)
#   RAC_E2E_SMOKE=1 end-to-end benchmark smoke: `python3 bench/e2e/run.py
#               selftest` builds the standalone bench/e2e CMake project
#               (under build-e2e/) and runs a smoke pass over all four
#               workloads plus tamper tests of its result checker (~5 s
#               plus the build). Tier-1 only compiles rac_e2e.cpp (the
#               rac_e2e_compile_check object target); this phase also
#               links and runs it.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"

cmake -B "$BUILD_DIR" -S . -DRAC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Static checks first: the cheapest phase, and its findings are the easiest
# to act on. The same gate runs as the `rac_analyze` ctest, so plain
# `ctest` catches violations too; running it here keeps the failure
# message at the top of a CI log.
"$BUILD_DIR"/tools/analyze/rac_analyze --root . src tools bench examples

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

if [[ "${RAC_TSAN:-0}" == "1" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DRAC_WERROR=ON -DRAC_TSAN=ON
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target concurrency_tests parallel_tests fleet_tests
  ctest --test-dir "$TSAN_DIR" --output-on-failure -L concurrency
fi

if [[ "${RAC_SAN:-0}" == "1" ]]; then
  SAN_DIR="${BUILD_DIR}-san"
  cmake -B "$SAN_DIR" -S . -DRAC_WERROR=ON -DRAC_ASAN=ON -DRAC_UBSAN=ON
  cmake --build "$SAN_DIR" -j "$(nproc)"
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)"
fi

if [[ "${RAC_FAULT_SAN:-0}" == "1" ]]; then
  FAULT_SAN_DIR="${BUILD_DIR}-fault-san"
  cmake -B "$FAULT_SAN_DIR" -S . -DRAC_WERROR=ON -DRAC_ASAN=ON -DRAC_UBSAN=ON
  cmake --build "$FAULT_SAN_DIR" -j "$(nproc)" --target fault_tests
  ctest --test-dir "$FAULT_SAN_DIR" --output-on-failure -L fault
fi

if [[ "${RAC_FLEET_SMOKE:-0}" == "1" ]]; then
  RAC_BENCH_QUICK=1 "$BUILD_DIR"/bench/bench_fleet_scale
fi

if [[ "${RAC_TRAFFIC_SMOKE:-0}" == "1" ]]; then
  RAC_BENCH_QUICK=1 "$BUILD_DIR"/bench/bench_dynamic_traffic
fi

if [[ "${RAC_BENCH_SMOKE:-0}" == "1" ]]; then
  SMOKE_DIR="${BUILD_DIR}/bench-smoke-reports"
  rm -rf "$SMOKE_DIR"
  python3 scripts/bench_trajectory.py sweep \
      --build-dir "$BUILD_DIR" --reports "$SMOKE_DIR" --quick
  python3 scripts/bench_trajectory.py collect --reports "$SMOKE_DIR"
fi

if [[ "${RAC_E2E_SMOKE:-0}" == "1" ]]; then
  python3 bench/e2e/run.py selftest
fi

if [[ "${RAC_ALLOC_HOOK:-0}" == "1" ]]; then
  ALLOC_DIR="${BUILD_DIR}-alloc"
  cmake -B "$ALLOC_DIR" -S . -DRAC_WERROR=ON -DRAC_ALLOC_HOOK=ON
  cmake --build "$ALLOC_DIR" -j "$(nproc)" --target rl_tests core_tests
  "$ALLOC_DIR"/tests/rl_tests
  "$ALLOC_DIR"/tests/core_tests
fi

if [[ "${RAC_AUDIT:-0}" == "1" ]]; then
  AUDIT_DIR="${BUILD_DIR}-audit"
  cmake -B "$AUDIT_DIR" -S . -DRAC_WERROR=ON -DRAC_AUDIT=ON
  cmake --build "$AUDIT_DIR" -j "$(nproc)"
  ctest --test-dir "$AUDIT_DIR" --output-on-failure -j "$(nproc)"
fi
