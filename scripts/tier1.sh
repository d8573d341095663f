#!/usr/bin/env bash
# Tier-1 verification: configure + build + the full test suite, once
# (every plain-build test and label, `obs`, `serving`, `chaos` and the
# bench smoke/baseline pair included), then rebuild the
# fault-injection/recovery subset under ASan+UBSan (the tests carrying
# the ctest label `sanitize`) so the closure-heavy runtime paths run
# with memory and UB checking on every change.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset default
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs"

cmake --preset asan-ubsan
cmake --build build-sanitize -j"$jobs"
ctest --test-dir build-sanitize -L sanitize --output-on-failure -j"$jobs"

# The serving suite again under ASan+UBSan: the serve loop stacks
# closures on the runtime hot path (epoch seeding, wake relaunches,
# provenance-driven completion), exactly what the sanitizers watch.
ctest --test-dir build-sanitize -L serving --output-on-failure

# Reduced chaos smoke under the sanitizers: a handful of randomized
# device/link failover scenarios with memory and UB checking. The
# full 100-seed sweep runs in the plain build (ctest label `chaos`,
# part of the full suite above).
VP_CHAOS_SEEDS=10 ctest --test-dir build-sanitize -L chaos --output-on-failure
