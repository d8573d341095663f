#!/usr/bin/env bash
# Regenerate the golden corpus (tests/golden/*.json) from the current
# build. Run after an intentional change to simulation behavior, then
# review and commit the corpus diff like any other code change.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset default
cmake --build build -j"$jobs" --target test_golden --target test_serving \
    --target test_failover
GOLDEN_REGEN=1 ./build/tests/test_golden
GOLDEN_REGEN=1 ./build/tests/test_serving \
    --gtest_filter='Serving.GoldenStreamingReport'
GOLDEN_REGEN=1 ./build/tests/test_failover \
    --gtest_filter='Failover.MatchesGolden'

git --no-pager diff --stat -- tests/golden || true
