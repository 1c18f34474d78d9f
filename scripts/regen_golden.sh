#!/usr/bin/env bash
# Regenerate the golden-stats fixtures under tests/golden/, the taxonomy
# baseline BENCH_baseline.json and the bench stdout goldens under
# tests/golden/stdout/ from the current simulator behaviour, then re-run
# the golden tests to confirm the fixtures round-trip (ctest's
# baseline_json_* and stdout_* pairs gate the other two).
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build/)
#
# Run this only when a behaviour change is *intended*; review the fixture
# diff like code before committing it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake --build "$build" -j"$(nproc)"
DSS_REGEN_GOLDEN=1 "$build/tests/dss_tests" --gtest_filter='GoldenStats.*'
"$build/tests/dss_tests" --gtest_filter='GoldenStats.*'
"$build/bench/taxonomy_all_queries" --json "$repo/BENCH_baseline.json" \
    > /dev/null
# Each stdout_<bench>_run test writes its bench's stdout to
# <build>/tests/stdout/<bench>.txt; those files are the new goldens.
ctest --test-dir "$build" -R '^stdout_.*_run$' -j"$(nproc)" \
    --output-on-failure
cp "$build"/tests/stdout/*.txt "$repo/tests/golden/stdout/"
git -C "$repo" --no-pager diff --stat -- tests/golden BENCH_baseline.json ||
    true
