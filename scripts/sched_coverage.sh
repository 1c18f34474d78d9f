#!/usr/bin/env bash
# Line coverage of the query-stream scheduler (src/sched/) under its test
# suite, with a hard floor.
#
# Usage: scripts/sched_coverage.sh [--min <pct>] [build-dir]
#        (defaults: --min 90, build-cov/)
#
# Builds with -DSIM_COVERAGE=ON (gcov instrumentation; the container
# ships gcov, not gcovr, so the report is assembled from raw gcov
# output), runs the sched unit/property/fuzz/golden tests, then reports
# per-file line coverage for every src/sched/*.cc and fails if the
# aggregate is below the floor.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
min=90
build=""

while [[ $# -gt 0 ]]; do
    case "$1" in
        --min)
            min="$2"
            shift 2
            ;;
        -*)
            echo "sched_coverage.sh: unknown option '$1'" >&2
            exit 2
            ;;
        *)
            build="$1"
            shift
            ;;
    esac
done
build="${build:-$repo/build-cov}"

cmake -B "$build" -S "$repo" -DSIM_COVERAGE=ON
cmake --build "$build" -j"$(nproc)" --target dss_tests

# Stale counters from earlier runs would dilute the report.
find "$build" -name '*.gcda' -delete

filter='Percentile.*:LatencySummary.*:StreamModel.*:TraceCacheUnit.*'
filter+=':SchedSim.*:StreamFuzz.*:GoldenStats.Stream*'
"$build/tests/dss_tests" --gtest_filter="$filter"

# gcov writes per-source reports next to the object files; the summary
# lines ("Lines executed:P% of N") are parsed per sched source.
objdir="$build/src/CMakeFiles/dss_sched.dir/sched"
if [[ ! -d "$objdir" ]]; then
    echo "sched_coverage.sh: no coverage objects under $objdir" >&2
    exit 1
fi

cd "$objdir"
report="$(gcov -n -s "$repo/src" ./*.gcda 2>/dev/null)"

python3 - "$min" <<EOF
import re
import sys

min_pct = float(sys.argv[1])
report = """$report"""

covered = total = 0
rows = []
f = None
for line in report.splitlines():
    m = re.match(r"File '(.*)'", line)
    if m:
        f = m.group(1)
        continue
    m = re.match(r"Lines executed:([0-9.]+)% of (\d+)", line)
    if m and f is not None:
        pct, n = float(m.group(1)), int(m.group(2))
        if "sched/" in f:
            rows.append((f, pct, n))
            covered += round(pct * n / 100.0)
            total += n
        f = None

if not rows:
    sys.stderr.write("sched_coverage.sh: no sched/ files in gcov output\n")
    sys.exit(1)

for f, pct, n in sorted(rows):
    print("  %-28s %6.1f%% of %d lines" % (f.split("src/")[-1], pct, n))
agg = 100.0 * covered / total
print("sched aggregate: %.1f%% of %d lines (floor %.0f%%)"
      % (agg, total, min_pct))
if agg < min_pct:
    sys.stderr.write("sched_coverage.sh: coverage below floor\n")
    sys.exit(1)
EOF
echo "sched_coverage.sh: OK"
