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
 *   --fault-seed <n> / --fault-rate <p>
 *                    deterministic fault injection (sim/fault.hh)
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
 *                    (default), modern, scaled64, or a JSON spec file;
 *                    "--machine list" prints the presets (the kMachine
 *                    bit — every bench built on harness::benchMain
 *                    accepts it)
 *
 * ObsSession owns the wiring: it hands out the sampler/timeline pointers
 * to pass to the runner, collects per-run stats and registry snapshots,
 * and writes the output files on finish().
 */

#ifndef DSS_HARNESS_OPTIONS_HH
#define DSS_HARNESS_OPTIONS_HH

#include <memory>
#include <string>

#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "sim/check.hh"
#include "sim/fault.hh"
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
        kFault = 1u << 5, ///< --fault-seed / --fault-rate
        kPlacement = 1u << 6, ///< --placement
        kMemprof = 1u << 7, ///< --memprof[=topN]
        kAll = kJson | kTrace | kEpoch | kScale | kCheck | kFault |
               kPlacement | kMemprof,
        /**
         * --stream / --stream-seed / --stream-policy.
         * NOT part of kAll: only stream-aware benches opt in (pass
         * kAll | kStream), so the single-shot binaries keep rejecting
         * the stream flags exactly as before.
         */
        kStream = 1u << 8,
        /**
         * --machine. Outside kAll so direct parse() callers are
         * unaffected; harness::benchMain ORs it in, which is how all
         * bench binaries pick the flag up in one place.
         */
        kMachine = 1u << 9,
        /**
         * --verify-procs / --verify-lines / --verify-wb / --verify-depth
         * / --verify-mutant. Outside kAll: only the protocol model
         * checker bench (bench/verify_protocol.cc) opts in.
         */
        kVerify = 1u << 10,
    };

    std::string jsonPath;        ///< --json; empty = no JSON output
    std::string tracePath;       ///< --trace; empty = no timeline output
    sim::Cycles epochCycles = 0; ///< --epoch; 0 = no time-series sampling
    std::string scale = "paper"; ///< --scale
    bool check = false;          ///< --check
    std::uint64_t faultSeed = 0; ///< --fault-seed
    double faultRate = 0.0;      ///< --fault-rate; 0 = no injection
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

    /** The fault configuration selected by --fault-seed/--fault-rate. */
    sim::FaultConfig faultConfig() const;
};

/**
 * Build the --placement policy for machine @p cfg. class-affinity needs
 * @p space (the workload's address space) and throws std::runtime_error
 * without it — guardedMain turns that into a clean exit 3. A
 * class-affinity node @p cfg lacks is a usage error: it prints the
 * machine's node count and exits(2).
 */
std::unique_ptr<sim::PlacementPolicy>
makePlacement(const BenchOptions &opts, const sim::MachineConfig &cfg,
              const sim::AddressSpace *space);

/** Observability output for one bench invocation. */
class ObsSession
{
  public:
    ObsSession(std::string bench_name, BenchOptions opts);

    /** Sampler to pass to the runner; null unless --epoch was given. */
    obs::Sampler *sampler() { return sampler_.get(); }

    /** Timeline to pass to the runner; null unless --trace was given. */
    obs::Timeline *timeline() { return timeline_.get(); }

    /** Invariant checker; null unless --check was given. */
    sim::InvariantChecker *checker() { return checker_.get(); }

    /** Fault plan; null unless --fault-rate was nonzero. */
    sim::FaultPlan *faults() { return faults_.get(); }

    /** Line-level memory profile; null unless wireMemprof() armed it. */
    obs::MemProfile *memProfile() { return memProfile_.get(); }

    /**
     * Arm the --memprof profile for machine geometry @p cfg and,
     * when @p catalog is given, load the structure symbol map from it.
     * No-op unless --memprof was passed, so benches can call this
     * unconditionally once the machine config and database exist (and
     * before the first runOptions()). Every run that uses the profile
     * must share @p cfg's coherent-level geometry (Machine::setMemProfile
     * throws otherwise). The report lands in the JSON document's
     * "memprof" block on finish().
     */
    void wireMemprof(const sim::MachineConfig &cfg,
                     const db::Catalog *catalog = nullptr);

    /** The profiler's symbol map (filled by wireMemprof). */
    obs::RegionMap &symbols() { return symbols_; }

    /**
     * Adopt the --placement policy (normally makePlacement()'s result)
     * and wire it into every subsequent runOptions(). Benches whose
     * machine geometry varies per sweep point instead build a policy per
     * configuration and set RunOptions::placement themselves.
     */
    void usePlacement(std::unique_ptr<sim::PlacementPolicy> p)
    {
        placement_ = std::move(p);
    }

    /** The adopted policy; null until usePlacement(). */
    sim::PlacementPolicy *placement() { return placement_.get(); }

    /**
     * Everything wired up for one runCold/runSequence call: sampler,
     * timeline, a fresh registry slot (when --json), the checker, fault
     * plan, placement policy and memory profile.
     */
    RunOptions runOptions();

    /**
     * Destination for a runner registry snapshot of the next addRun();
     * null unless --json was given (snapshots are only kept for JSON).
     */
    obs::Json *registrySlot();

    /**
     * Record one simulated run under @p label. Appends the full
     * toJson(stats) plus any registry snapshot captured since the last
     * addRun() to the report's "runs" array.
     */
    void addRun(const std::string &label, const sim::SimStats &stats);

    /** Free-form extra payload ("figure" data) merged into the report. */
    obs::Json &extra() { return extra_; }

    bool wantJson() const { return !opts_.jsonPath.empty(); }

    /**
     * Write the requested output files (JSON report and/or Chrome trace)
     * and note them on @p err, including a --check/--fault summary when
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
    std::unique_ptr<sim::FaultPlan> faults_;
    std::unique_ptr<obs::MemProfile> memProfile_;
    obs::RegionMap symbols_;
    std::unique_ptr<sim::PlacementPolicy> placement_;
    obs::Json pendingRegistry_;
    obs::Json runs_;
    obs::Json extra_;
};

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_OPTIONS_HH
