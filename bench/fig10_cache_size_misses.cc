/**
 * @file
 * Figures 10 and 11 from one cache-size sweep of Q3, Q6 and Q12, from
 * 4 KB L1 / 128 KB L2 (baseline) to 256 KB L1 / 8 MB L2, normalized to
 * the baseline = 100. Line sizes fixed at 32 B / 64 B.
 *
 * Figure 10: misses on each data-structure group (Priv, Data, Index,
 * Metadata), in the primary and the secondary cache.
 *
 * Figure 11: execution time broken into Busy / PMem / SMem / MSync.
 *
 * Paper reference shapes: Priv misses in the primary cache collapse as
 * caches grow (private data is reused); the Data curve in the secondary
 * cache is flat (no intra-query temporal locality); Q3's Index and
 * Metadata misses shrink (indices are re-traversed within the query).
 * Queries speed up with cache size, but most of the gain is PMem; Q3
 * also gains SMem from index and metadata temporal locality; Q6/Q12
 * barely gain SMem because database data has no intra-query reuse.
 */

#include <algorithm>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"

using namespace dss;

namespace {

struct SizePoint
{
    std::size_t l1, l2;
};

/** The first point is the baseline. */
constexpr SizePoint kSizes[] = {
    {4 << 10, 128 << 10},
    {16 << 10, 512 << 10},
    {64 << 10, 2 << 20},
    {256 << 10, 8 << 20},
};

std::string
sizeName(std::size_t bytes)
{
    if (bytes >= (1u << 20))
        return std::to_string(bytes >> 20) + "M";
    return std::to_string(bytes >> 10) + "K";
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Figure 10: misses vs. cache size (baseline "
                 "4K/128K = 100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, ctx.config().nprocs));

    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};
    std::vector<std::vector<harness::SweepPoint>> sweeps;
    for (tpcd::QueryId q : queries) {
        harness::TraceSet traces = wl.trace(q);
        std::vector<harness::SweepPoint> &points = sweeps.emplace_back();
        std::vector<harness::Job> jobs;
        for (const SizePoint &sp : kSizes) {
            points.push_back({sizeName(sp.l1) + "/" + sizeName(sp.l2), {}});
            jobs.push_back({tpcd::queryName(q) + "/" + points.back().label,
                            ctx.config().withCacheSizes(sp.l1, sp.l2),
                            {&traces}, &wl.db().space()});
        }
        const std::vector<sim::SimStats> stats = session.runJobs(jobs);
        for (std::size_t i = 0; i < stats.size(); ++i)
            points[i].stats = stats[i].aggregate();
    }

    for (std::size_t i = 0; i < sweeps.size(); ++i)
        harness::printGroupMissSweep(std::cout, tpcd::queryName(queries[i]),
                                     "caches", sweeps[i], 0);
    std::cout << "=== Figure 11: execution time vs. cache size (baseline "
                 "4K/128K = 100) ===\n\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i)
        harness::printTimeSweep(std::cout, tpcd::queryName(queries[i]),
                                "caches", sweeps[i], 0);
    return session.finish(ctx.config(), std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig10_cache_size_misses", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson, run);
}
