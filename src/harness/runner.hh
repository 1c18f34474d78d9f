/**
 * @file
 * Experiment runner: simulate trace sets on Machine configurations, cold
 * or warm (the warm-start chaining of the paper's Figure 12), optionally
 * observed by the obs layer (epoch sampler, Chrome-trace timeline, and a
 * counter-registry snapshot). runSequence is the one run path: it builds
 * a machine, wires it and replays each trace set in turn; runCold is its
 * one-set case.
 */

#ifndef DSS_HARNESS_RUNNER_HH
#define DSS_HARNESS_RUNNER_HH

#include <vector>

#include "harness/workload.hh"
#include "sim/machine.hh"

namespace dss {
namespace obs {
class Json;
class MemProfile;
class Sampler;
class Timeline;
} // namespace obs

namespace sim {
class FaultPlan;
class InvariantChecker;
class PlacementPolicy;
} // namespace sim

namespace harness {

/**
 * Everything a run can be wired up with, in one bundle: observers
 * (sampler / timeline / registry snapshot) and robustness hooks
 * (invariant checker, fault plan). All pointers are optional and
 * borrowed.
 */
struct RunOptions
{
    obs::Sampler *sampler = nullptr;
    obs::Timeline *timeline = nullptr;
    obs::Json *registrySnapshot = nullptr;
    sim::InvariantChecker *checker = nullptr;
    sim::FaultPlan *faults = nullptr;
    /** Page-placement policy (sim/placement.hh); null = the machine's
     * default interleave. Mutable: first-touch and profile resolve per
     * run. */
    sim::PlacementPolicy *placement = nullptr;
    /** Line-level memory profile (--memprof), attached to the machine
     * with Machine::setMemProfile: it also brings up the word-granular
     * sharing tracker, so the registry's per-proc miss.cohe.{true,false}
     * counters come alive. */
    obs::MemProfile *memProfile = nullptr;
};

/**
 * Simulate a sequence of trace sets on one machine without flushing caches
 * between them (Fig 12: "caches warmed up with another execution"). Each
 * run resets the machine's per-run lifetime stats first. The sampler and
 * timeline, when given, observe every run of the chain: epoch samples
 * carry their run index, and timeline runs are laid out back-to-back on
 * the trace time axis. With opts.registrySnapshot set, the machine's full
 * counter registry (per-proc stats, cache/write-buffer/directory/lock
 * counters) is snapshotted into it after the last run.
 *
 * @return per-run statistics, in order.
 */
std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts = {});

/** Simulate @p traces on a fresh machine with @p cfg (cold caches). */
sim::SimStats runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
                      const RunOptions &opts = {});

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_RUNNER_HH
