/**
 * @file
 * Figures 8 and 9 from one line-size sweep of Q3, Q6 and Q12. The L1 line
 * is always half the L2 line (paper Section 4.3); configurations are
 * labeled by the L2 line size and normalized to 100 for the baseline
 * (32 B L1 / 64 B L2 lines).
 *
 * Figure 8: misses on each data-structure group (Priv, Data, Index,
 * Metadata), in the primary and the secondary cache.
 *
 * Figure 9: execution time broken into Busy / PMem (stall on private
 * data) / SMem (stall on shared data) / MSync.
 *
 * Paper reference shapes: Data (and Index) misses fall sharply with line
 * size — good spatial locality; Priv misses in the L1 grow past 32 B
 * lines; Metadata bottoms out around 64 B and then grows. SMem falls as
 * lines grow; PMem grows past 16-32 B; the total is minimized at 64 B
 * secondary-cache lines for all three queries.
 */

#include <algorithm>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"

using namespace dss;

namespace {

constexpr std::size_t kLineSizes[] = {16, 32, 64, 128, 256};
constexpr std::size_t kBaseline = 2; ///< index of the 64 B L2 line

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Figure 8: misses vs. cache line size (normalized to "
                 "the 64 B-L2-line baseline = 100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, ctx.config().nprocs));

    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};
    std::vector<std::vector<harness::SweepPoint>> sweeps;
    for (tpcd::QueryId q : queries) {
        harness::TraceSet traces = wl.trace(q);
        std::vector<harness::SweepPoint> &points = sweeps.emplace_back();
        std::vector<harness::Job> jobs;
        for (std::size_t line : kLineSizes) {
            points.push_back({std::to_string(line) + "B", {}});
            jobs.push_back({tpcd::queryName(q) + "/" + points.back().label,
                            ctx.config().withLineSize(line), {&traces},
                            &wl.db().space()});
        }
        const std::vector<sim::SimStats> stats = session.runJobs(jobs);
        for (std::size_t i = 0; i < stats.size(); ++i)
            points[i].stats = stats[i].aggregate();
    }

    for (std::size_t i = 0; i < sweeps.size(); ++i)
        harness::printGroupMissSweep(std::cout, tpcd::queryName(queries[i]),
                                     "L2 line", sweeps[i], kBaseline);
    std::cout << "=== Figure 9: execution time vs. cache line size "
                 "(baseline 64 B = 100) ===\n\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i)
        harness::printTimeSweep(std::cout, tpcd::queryName(queries[i]),
                                "L2 line", sweeps[i], kBaseline);
    return session.finish(ctx.config(), std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig8_line_size_misses", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson, run);
}
