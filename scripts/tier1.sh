#!/usr/bin/env bash
# Tier-1 verification: configure + build + full test suite, then
# rebuild the fault-injection/recovery subset under ASan+UBSan (the
# tests carrying the ctest label `sanitize`) so the closure-heavy
# runtime paths run with memory and UB checking on every change.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset default
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs"

# Observability checks (also part of the full suite above): unit
# tests plus the end-to-end trace/report export + trace_lint.py pass
# (ctest entry `trace_export`, scripts/check_trace.sh).
ctest --test-dir build -L obs --output-on-failure

# Serving layer (continuous ingest, admission control, SLO tracking):
# the streaming test tier, the serving lane of the property tests
# and README's sharded serving example (ctest label `serving`, also
# part of the full suite above).
ctest --test-dir build -L serving --output-on-failure

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
