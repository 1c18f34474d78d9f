#include "harness/runner.hh"

#include "obs/registry.hh"
#include "sim/check.hh"
#include "sim/fault.hh"

namespace dss {
namespace harness {

std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts)
{
    sim::Machine machine(cfg);
    machine.setChecker(opts.checker);
    machine.setFaultPlan(opts.faults);
    machine.setPlacement(opts.placement);
    machine.setMemProfile(opts.memProfile);
    std::vector<sim::SimStats> out;
    out.reserve(sequence.size());
    for (const TraceSet *traces : sequence) {
        machine.resetStats(); // per-run home counters (Fig 12 repetitions)
        out.push_back(
            machine.run(tracePtrs(*traces), opts.sampler, opts.timeline));
    }
    if (opts.registrySnapshot) {
        obs::Registry reg;
        machine.registerStats(reg);
        if (opts.checker)
            opts.checker->registerStats(reg, "check");
        if (opts.faults)
            opts.faults->registerStats(reg, "fault");
        *opts.registrySnapshot = reg.toJson();
    }
    return out;
}

sim::SimStats
runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
        const RunOptions &opts)
{
    return runSequence(cfg, {&traces}, opts).front();
}

} // namespace harness
} // namespace dss
