#!/usr/bin/env bash
# Regenerate the golden-stats fixtures under tests/golden/ and the
# taxonomy baseline BENCH_baseline.json from the current simulator
# behaviour, then re-run the golden tests to confirm the fixtures
# round-trip (ctest's baseline_json_* pair gates the baseline).
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build/)
#
# Run this only when a behaviour change is *intended*; review the fixture
# diff like code before committing it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake --build "$build" -j"$(nproc)" --target dss_tests taxonomy_all_queries
DSS_REGEN_GOLDEN=1 "$build/tests/dss_tests" --gtest_filter='GoldenStats.*'
"$build/tests/dss_tests" --gtest_filter='GoldenStats.*'
"$build/bench/taxonomy_all_queries" --json "$repo/BENCH_baseline.json" \
    > /dev/null
git -C "$repo" --no-pager diff --stat -- tests/golden BENCH_baseline.json ||
    true
