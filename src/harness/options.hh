/**
 * @file
 * Shared command-line flag layer and JSON/trace output session for the
 * bench/ binaries.
 *
 * Every figure binary accepts the same flags (each binary declares which
 * subset it implements; anything else — including misspellings — is a
 * hard error, never silently ignored):
 *
 *   --json <path>    write a machine-readable report of the run
 *   --trace <path>   write a Chrome trace-event timeline (chrome://tracing)
 *   --epoch <cycles> sample per-processor counters every N simulated
 *                    cycles into the JSON report's "epochs" series
 *   --scale <name>   database population: "paper" (default) or "tiny"
 *   --check          run the coherence invariant checker (sim/check.hh)
 *   --placement <name>[:arg]
 *                    NUMA page-placement policy (sim/placement.hh):
 *                    interleave (default), first-touch,
 *                    class-affinity[:node], profile
 *   --stream <n> / --stream-seed <s> / --stream-policy <fifo|shortest>
 *                    query-stream scheduler knobs (src/sched/), accepted
 *                    only by stream-aware benches (the kStream flag bit,
 *                    deliberately outside kAll)
 *   --machine <preset|file.json>
 *                    machine specification (sim/spec.hh): paper1997
 *                    (default), modern, or a JSON spec file;
 *                    "--machine list" prints the presets (the kMachine
 *                    bit — every bench built on harness::benchMain
 *                    accepts it)
 *
 * ObsSession owns the wiring: runJobs simulates a bench's configurations
 * with the session's observers, records each run's stats and registry
 * snapshot, and finish() writes the output files.
 */

#ifndef DSS_HARNESS_OPTIONS_HH
#define DSS_HARNESS_OPTIONS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "sim/check.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"
#include "tpcd/dbgen.hh"

namespace dss {
namespace harness {

struct BenchOptions
{
    /** Which shared flags a binary implements (parse() mask). */
    enum Flags : unsigned {
        kJson = 1u << 0,
        kTrace = 1u << 1,
        kEpoch = 1u << 2,
        kScale = 1u << 3,
        kCheck = 1u << 4, ///< --check
        kPlacement = 1u << 5, ///< --placement
        kMemprof = 1u << 6, ///< --memprof[=topN]
        kAll = kJson | kTrace | kEpoch | kScale | kCheck | kPlacement |
               kMemprof,
        /**
         * --stream / --stream-seed / --stream-policy.
         * NOT part of kAll: only stream-aware benches opt in (pass
         * kAll | kStream), so the single-shot binaries keep rejecting
         * the stream flags exactly as before.
         */
        kStream = 1u << 7,
        /**
         * --machine. Outside kAll so direct parse() callers are
         * unaffected; harness::benchMain ORs it in, which is how all
         * bench binaries pick the flag up in one place.
         */
        kMachine = 1u << 8,
        /**
         * --verify-procs / --verify-lines / --verify-wb / --verify-depth
         * / --verify-mutant. Outside kAll: only the protocol model
         * checker bench (bench/verify_protocol.cc) opts in.
         */
        kVerify = 1u << 9,
    };

    std::string jsonPath;        ///< --json; empty = no JSON output
    std::string tracePath;       ///< --trace; empty = no timeline output
    sim::Cycles epochCycles = 0; ///< --epoch; 0 = no time-series sampling
    std::string scale = "paper"; ///< --scale
    bool check = false;          ///< --check
    /** --placement, already validated by parse(). */
    sim::PlacementSpec placement;
    bool memprof = false;        ///< --memprof: line-level memory profiler
    unsigned memprofTopN = 20;   ///< --memprof=<topN>: hot-line list size
    unsigned streamInstances = 0; ///< --stream; 0 = the bench's default
    std::uint64_t streamSeed = 42; ///< --stream-seed
    std::string streamPolicy = "fifo"; ///< --stream-policy: fifo, shortest
    /** --machine: preset name or JSON spec path (sim::loadSpec). */
    std::string machine = "paper1997";
    unsigned verifyProcs = 2; ///< --verify-procs: model processors
    unsigned verifyLines = 2; ///< --verify-lines: tracked data lines
    unsigned verifyWb = 1;    ///< --verify-wb: model write-buffer slots
    /** --verify-depth: BFS depth bound; 0 = exhaust the state space. */
    unsigned verifyDepth = 0;
    /** --verify-mutant: 0 = clean run, 1..4 = inject that known protocol
     * mutation (verify::Mutant), -1 = run every mutant in sequence. */
    int verifyMutant = 0;

    /**
     * Parse the shared flags. Prints usage and exits(0) on --help; prints
     * an error plus usage and exits(2) on unknown flags, flags outside
     * @p flags, or malformed values. Nothing is ever silently accepted.
     */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &bench_name,
                              unsigned flags = kAll);

    /** The TPC-D population selected by --scale. */
    tpcd::ScaleConfig scaleConfig() const;
};

/**
 * Build the placement policy @p spec names for machine @p cfg.
 * class-affinity needs @p space (the workload's address space) and throws
 * std::runtime_error without it — guardedMain turns that into a clean
 * exit 3. A class-affinity node @p cfg lacks is a usage error: it prints
 * the machine's node count and exits(2).
 */
std::unique_ptr<sim::PlacementPolicy>
makePlacement(const sim::PlacementSpec &spec, const sim::MachineConfig &cfg,
              const sim::AddressSpace *space);

/**
 * One configuration to simulate: a machine and the trace sets it
 * replays in order. One set is a cold run; more than one is a warm chain
 * (Fig 12), of which only the last run is recorded.
 */
struct Job
{
    std::string label{}; ///< the run's label in the JSON report
    sim::MachineConfig cfg{};
    std::vector<const TraceSet *> sequence{};
    /** The traced database's address space (class-affinity's class map). */
    const sim::AddressSpace *space = nullptr;
    /** Replaces --placement for this job (ablation_placement's sweep). */
    std::optional<sim::PlacementSpec> placement{};
    /** Replaces the session's --memprof profile (one per query). */
    obs::MemProfile *memProfile = nullptr;
};

/** Observability output for one bench invocation. */
class ObsSession
{
  public:
    ObsSession(std::string bench_name, BenchOptions opts);

    /**
     * Simulate each job in order: build its own placement policy, replay
     * its trace sets on a fresh machine with the session's observers, and
     * record its last run under its label (with the registry snapshot
     * taken after that run, when --json). Placement claims therefore
     * never leak from one job to the next.
     *
     * @return each job's last-run statistics, in job order.
     */
    std::vector<sim::SimStats> runJobs(const std::vector<Job> &jobs);

    /**
     * The session's observers for a run wired by hand (the stream
     * scheduler): sampler, timeline, checker and memory profile, each
     * null unless its flag was given. No placement, no registry slot.
     */
    RunOptions observers() const;

    /**
     * Append one run to the report's "runs" array: @p label, the full
     * toJson(@p stats) and, unless null, the registry snapshot
     * @p counters. No-op without --json.
     */
    void record(const std::string &label, const sim::SimStats &stats,
                obs::Json counters);

    /**
     * Arm the --memprof profile for machine geometry @p cfg and,
     * when @p catalog is given, load the structure symbol map from it.
     * No-op unless --memprof was passed, so benches can call this
     * unconditionally once the machine config and database exist (and
     * before the first run). Every run that uses the profile must share
     * @p cfg's coherent-level geometry (Machine::setMemProfile throws
     * otherwise). The report lands in the JSON document's "memprof"
     * block on finish().
     */
    void wireMemprof(const sim::MachineConfig &cfg,
                     const db::Catalog *catalog = nullptr);

    /** Free-form extra payload ("figure" data) merged into the report. */
    obs::Json &extra() { return extra_; }

    bool wantJson() const { return !opts_.jsonPath.empty(); }

    /**
     * Write the requested output files (JSON report and/or Chrome trace)
     * and note them on @p err, including a --check summary when
     * active. No-op for files that were not requested.
     * @return false if any file could not be written, or if the
     *         invariant checker detected violations.
     */
    bool finish(const sim::MachineConfig &cfg, std::ostream &err);

  private:
    std::string bench_;
    BenchOptions opts_;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<obs::Timeline> timeline_;
    std::unique_ptr<sim::InvariantChecker> checker_;
    std::unique_ptr<obs::MemProfile> memProfile_;
    obs::RegionMap symbols_;
    obs::Json runs_;
    obs::Json extra_;
};

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_OPTIONS_HH
