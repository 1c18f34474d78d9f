#!/usr/bin/env bash
# Tier-1 check: configure, build, and run the full test suite.
#
# Usage: scripts/check.sh [--sanitize=thread|address|undefined] [--chaos]
#                         [--assert] [--placement] [--memprof] [--stream]
#                         [--machine] [--verify] [--lint] [build-dir]
#
# --sanitize builds into a separate build directory (build-tsan/,
# build-asan/ or build-ubsan/) with -DSIM_SANITIZE set and runs only the
# coherence and spinlock tests there — the interleaving-heavy subset a
# sanitizer can actually judge — so the instrumented build never
# pollutes the normal one and stays fast enough for routine use. The
# simulator is single-threaded; the thread leg stays so host-level job
# parallelism lands with a race detector already wired up.
#
# --chaos runs the robustness gauntlet: TSan and ASan builds over the
# fault-injection, invariant-checker and stream suites, plus the
# chaos_fault_sweep bench at tiny scale (nonzero fault rates, checker
# on, exit 1 on any violation) and the placement-policy sweep under the
# checker, then the --assert leg.
#
# --assert builds a Debug tree (build-debug/) and runs the full
# dss_tests there. Every other build, the sanitizer legs included, is
# RelWithDebInfo, whose NDEBUG compiles the simulator's asserts out;
# this is the one leg where they run.
#
# --placement runs the NUMA placement checks: the placement unit tests,
# the 4-policy x Q3/Q6/Q12 sweep under the invariant checker, and
# chaos_fault_sweep under interleave vs first-touch with the same fault
# seed — the injected fault counts must be byte-identical (FaultPlan
# keys on trace positions, never on page homes).
#
# --memprof runs the line-level memory-profile checks: the memprof unit
# tests, which include the profile schema and its reconciliation with
# the machine counters (cohe == cohe.true + cohe.false per processor,
# profile totals == machine totals), then report_memprof over
# Q3/Q6/Q12 at tiny scale.
#
# --stream runs the query-stream scheduler checks: the sched unit,
# property, fuzz and golden tests (the stream report schema and the
# latency algebra of every record among them), then throughput_stream at
# tiny scale with JSON output. The chaos gauntlet also runs these under
# each sanitizer.
#
# --machine runs the machine-spec checks: the hierarchy/spec unit tests
# (among them the modern three-level preset over Q3/Q6/Q12 under the
# invariant checker, with per-level counter reconciliation),
# `--machine list` preset discovery, byte-identity of the default report
# against an explicit `--machine paper1997` (the spec layer must be
# invisible to the goldens), and a machine-spec *file* (written on the
# spot) driving a bench end to end. The chaos gauntlet also runs these
# under each sanitizer.
#
# --verify runs the explicit-state protocol model checker
# (bench/verify_protocol, src/verify/): the canonicalization/symmetry
# and mutant-soundness unit tests, then exhaustive 2-proc x 2-line
# searches on both machine presets (paper1997 and modern) whose reports
# json_validate must accept (state space exhausted, zero invariant
# violations), a mutant sweep in which the checker must catch all four
# injected protocol bugs, and a bit-identity check of the JSON report
# across repeated runs. The chaos gauntlet runs these too.
#
# --lint runs the static gates: scripts/determinism_lint.py over the
# deterministic core (src/sim/, src/sched/) and, when clang-tidy is
# installed, clang-tidy with the repo .clang-tidy config (warnings are
# errors) over src/ using the build tree's compile_commands.json. A
# missing clang-tidy binary skips that half with a notice — the
# determinism lint always runs. The chaos gauntlet runs these too.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize=""
chaos=0
assert=0
placement=0
memprof=0
stream=0
machine=0
verify=0
lint=0
build=""

for arg in "$@"; do
    case "$arg" in
        --sanitize=thread|--sanitize=address|--sanitize=undefined)
            sanitize="${arg#--sanitize=}"
            ;;
        --sanitize*)
            echo "check.sh: unknown sanitizer in '$arg'" \
                 "(thread, address, undefined)" >&2
            exit 2
            ;;
        --chaos)
            chaos=1
            ;;
        --assert)
            assert=1
            ;;
        --placement)
            placement=1
            ;;
        --memprof)
            memprof=1
            ;;
        --stream)
            stream=1
            ;;
        --machine)
            machine=1
            ;;
        --verify)
            verify=1
            ;;
        --lint)
            lint=1
            ;;
        -*)
            echo "check.sh: unknown option '$arg'" >&2
            exit 2
            ;;
        *)
            build="$arg"
            ;;
    esac
done

short_of() {
    case "$1" in
        thread) echo tsan ;;
        address) echo asan ;;
        undefined) echo ubsan ;;
    esac
}

# Query-stream scheduler checks against an existing build dir: the sched
# unit/property/fuzz/golden tests (SchedSim.StreamReportAlgebraHolds
# among them pins the report schema and latency algebra), then a
# throughput_stream smoke run with JSON output.
stream_checks() {
    local dir="$1"
    local filter='Percentile.*:LatencySummary.*:StreamModel.*'
    filter+=':TraceCacheUnit.*:SchedSim.*:StreamFuzz.*:GoldenStats.Stream*'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    "$dir/bench/throughput_stream" --scale tiny --stream 8 \
        --json "$dir/stream_check.json" > /dev/null
}

# Machine-spec checks against an existing build dir: the hierarchy and
# spec unit tests, preset discovery, byte-identity of the default run
# against an explicit --machine paper1997, and a spec file written on
# the spot driving a bench.
machine_checks() {
    local dir="$1"
    local filter='Hierarchy.*:MachineSpec.*:MachineValidation.*'
    filter+=':BenchOptions.Machine*:BenchOptionsDeath.Machine*'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    # Preset discovery: `--machine list` prints every preset and exits 0.
    local listing
    listing="$("$dir/bench/fig6_time_breakdown" --machine list)"
    for preset in paper1997 modern scaled64; do
        if ! grep -q "$preset" <<< "$listing"; then
            echo "check.sh: machine: '--machine list' lacks $preset" >&2
            exit 1
        fi
    done

    # The spec layer must be invisible to the goldens: a run with no
    # --machine flag and one with an explicit paper1997 are the same
    # binary report, byte for byte.
    local dflt_json="$dir/machine_check_default.json"
    local paper_json="$dir/machine_check_paper1997.json"
    "$dir/bench/fig6_time_breakdown" --scale tiny \
        --json "$dflt_json" > /dev/null
    "$dir/bench/fig6_time_breakdown" --scale tiny --machine paper1997 \
        --json "$paper_json" > /dev/null
    if ! cmp -s "$dflt_json" "$paper_json"; then
        echo "check.sh: machine: default report differs from an explicit" \
             "--machine paper1997" >&2
        exit 1
    fi

    # A machine-spec *file* must drive a bench end to end: modern's
    # geometry with a distinctive middle level (512K instead of 256K).
    # MachineSpec.LoadsSpecFileAndRejectsUnknownKeys checks that such a
    # file reaches the report's config block.
    local spec_json="$dir/machine_check_spec.json"
    local file_json="$dir/machine_check_from_file.json"
    cat > "$spec_json" <<'SPEC'
{
  "name": "check-file",
  "levels": [
    {"sizeBytes": 32768, "lineBytes": 64, "assoc": 8, "hitCycles": 1},
    {"sizeBytes": 524288, "lineBytes": 64, "assoc": 8, "hitCycles": 14},
    {"sizeBytes": 8388608, "lineBytes": 64, "assoc": 16, "hitCycles": 48}
  ]
}
SPEC
    "$dir/bench/fig6_time_breakdown" --scale tiny \
        --machine "$spec_json" --json "$file_json" > /dev/null
}

# Line-level memory-profile checks against an existing build dir: the
# unit tests (among them the schema and machine-counter reconciliation of
# a report_memprof-style report), then a report_memprof smoke run over
# Q3/Q6/Q12 with --memprof and --json.
memprof_checks() {
    local dir="$1"
    "$dir/tests/dss_tests" --gtest_filter='MemProfile.*:RegionMap.*'
    "$dir/bench/report_memprof" --memprof --scale tiny \
        --json "$dir/memprof_check.json" > /dev/null
}

# Protocol-verification checks against an existing build dir: the
# canonicalization/symmetry, model and mutant unit tests plus the
# model-checker-to-real-machine bridge test, then verify_protocol in
# clean mode on both machine presets (json_validate requires the
# exhaustive 2x2 search to report zero violations), the full mutant
# sweep (every injected protocol bug must be caught with a
# counterexample), and bit-identity of the JSON report across repeated
# runs.
verify_checks() {
    local dir="$1"
    local filter='VerifyCanonical.*:VerifyModel.*:VerifyClean.*'
    filter+=':VerifyTraces.*:AllMutants/VerifyMutants.*'
    filter+=':CheckerClean.ModelCheckerTracesReplayCleanOnTheRealMachine'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    # Exhaustive clean searches: 2 procs x 2 lines + lock on both the
    # paper's two-level hierarchy and the modern three-level one. The
    # bench exits 3 on any invariant violation.
    local paper_json="$dir/verify_check_paper1997.json"
    local modern_json="$dir/verify_check_modern.json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --json "$paper_json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --machine modern --json "$modern_json"
    "$dir/tests/json_validate" "$paper_json" "$modern_json"

    # Soundness: all four protocol mutants must be *caught*. A mutant
    # that escapes the search makes the bench exit 3.
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 1 \
        --verify-mutant all > /dev/null

    # Determinism: the search must be bit-identical across runs.
    local rerun_json="$dir/verify_check_rerun.json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --json "$rerun_json" > /dev/null
    if ! cmp -s "$paper_json" "$rerun_json"; then
        echo "check.sh: verify: JSON report differs between repeated" \
             "runs of the same search" >&2
        exit 1
    fi
}

# Assertion checks: a Debug build (asserts compiled in) running every
# dss_tests test.
assert_checks() {
    local dir="$repo/build-debug"
    cmake -B "$dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug
    cmake --build "$dir" -j"$(nproc)" --target dss_tests
    "$dir/tests/dss_tests"
}

# Static gates: the determinism lint over the deterministic core always;
# clang-tidy over src/ with the repo .clang-tidy (warnings are errors)
# when the binary is installed, driven by the build tree's
# compile_commands.json.
lint_checks() {
    local dir="$1"
    python3 "$repo/scripts/determinism_lint.py" "$repo"

    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "check.sh: lint: clang-tidy not installed — skipping the" \
             "static-analysis half (determinism lint still gates)"
        return 0
    fi
    if [[ ! -f "$dir/compile_commands.json" ]]; then
        cmake -B "$dir" -S "$repo" > /dev/null
    fi
    local srcs
    srcs="$(cd "$repo" && ls src/*/*.cc)"
    (cd "$repo" && xargs clang-tidy -p "$dir" --quiet <<< "$srcs")
    echo "check.sh: lint: clang-tidy clean over src/"
}

if [[ "$chaos" -eq 1 ]]; then
    # Robustness gauntlet: the fault/checker/guard and stream suites,
    # under both TSan and ASan, then the chaos sweep bench end to end
    # (its exit code is the verdict).
    filter='FaultDeterminism.*:FaultInjection.*:GracefulFailure.*'
    filter+=':CheckerCorruption.*:CheckerClean.*'
    filter+=':GuardedMain.*:SchedSim.*:StreamFuzz.*'
    for san in thread address; do
        dir="$repo/build-$(short_of "$san")"
        cmake -B "$dir" -S "$repo" -DSIM_SANITIZE="$san"
        cmake --build "$dir" -j"$(nproc)" \
            --target dss_tests chaos_fault_sweep ablation_placement \
            report_memprof throughput_stream fig6_time_breakdown \
            verify_protocol json_validate
        "$dir/tests/dss_tests" --gtest_filter="$filter"
        "$dir/bench/chaos_fault_sweep" --scale tiny
        "$dir/bench/ablation_placement" --scale tiny --check
        # The profile hooks and the sharing tracker under the
        # sanitizer, plus the schema/reconciliation tests.
        memprof_checks "$dir"
        # Stream scheduler fuzz + schema under the sanitizer.
        stream_checks "$dir"
        # The N-level hierarchy and machine-spec layer under the
        # sanitizer: preset discovery, paper1997 byte-identity, modern
        # counter reconciliation and a spec-file-driven run.
        machine_checks "$dir"
        # The exhaustive protocol search and mutant sweep under the
        # sanitizer: the model checker drives the real transition
        # functions, so races and UB in the protocol paths surface here.
        verify_checks "$dir"
    done
    # The static gates once (sanitizers do not change source text);
    # the last sanitizer build dir supplies compile_commands.json.
    lint_checks "$dir"
    assert_checks
    echo "check.sh: chaos gauntlet passed"
elif [[ "$assert" -eq 1 ]]; then
    assert_checks
    echo "check.sh: assertion checks passed"
elif [[ "$placement" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests ablation_placement chaos_fault_sweep
    "$build/tests/dss_tests" --gtest_filter='Placement*.*'

    # The 4-policy x Q3/Q6/Q12 sweep under the coherence invariant
    # checker: every policy must finish with zero violations.
    "$build/bench/ablation_placement" --scale tiny --check

    # Fault schedules must be placement-invariant: the FaultPlan keys on
    # per-processor trace positions, never on page homes, so moving every
    # shared page (first-touch vs interleave) must leave the injected
    # fault counts byte-identical at the same seed. Rows are (query,
    # fault rate, faults).
    sched_of() {
        "$build/bench/chaos_fault_sweep" --scale tiny --fault-seed 7 \
            --placement "$1" |
            awk 'NF >= 6 && $2 ~ /^0\./ { print $1, $2, $3 }'
    }
    a="$(sched_of interleave)"
    b="$(sched_of first-touch)"
    if [[ -z "$a" ]]; then
        echo "check.sh: no fault-schedule rows extracted from" \
             "chaos_fault_sweep output" >&2
        exit 1
    fi
    if [[ "$a" != "$b" ]]; then
        echo "check.sh: fault schedule moved with the placement policy" >&2
        diff <(echo "$a") <(echo "$b") >&2 || true
        exit 1
    fi
    echo "check.sh: placement checks passed (fault schedule is" \
         "placement-invariant)"
elif [[ "$memprof" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests report_memprof
    memprof_checks "$build"
    echo "check.sh: memprof checks passed"
elif [[ "$stream" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests throughput_stream
    stream_checks "$build"
    echo "check.sh: stream checks passed"
elif [[ "$machine" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests fig6_time_breakdown
    machine_checks "$build"
    echo "check.sh: machine checks passed"
elif [[ "$verify" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests verify_protocol json_validate
    verify_checks "$build"
    echo "check.sh: verify checks passed"
elif [[ "$lint" -eq 1 ]]; then
    build="${build:-$repo/build}"
    lint_checks "$build"
    echo "check.sh: lint checks passed"
elif [[ -n "$sanitize" ]]; then
    build="${build:-$repo/build-$(short_of "$sanitize")}"
    cmake -B "$build" -S "$repo" -DSIM_SANITIZE="$sanitize"
    cmake --build "$build" -j"$(nproc)" --target dss_tests
    "$build/tests/dss_tests" \
        --gtest_filter='Coherence*.*:Spinlock*.*'
else
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)"
    ctest --test-dir "$build" --output-on-failure -j"$(nproc)"
fi
