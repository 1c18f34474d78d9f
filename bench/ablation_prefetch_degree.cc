/**
 * @file
 * Ablation: prefetch degree. The paper fixes the prefetcher at 4 lines
 * (Section 6); this sweep shows why that is a reasonable choice: degree 4
 * is where the Sequential-query gains saturate for 128-byte tuples on
 * 32-byte L1 lines, while the Index query only accumulates pollution.
 */

#include <algorithm>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"

using namespace dss;

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Ablation: sequential prefetch degree (exec time, "
                 "Base=100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, ctx.config().nprocs));
    session.wireMemprof(ctx.config(), &wl.db().catalog());

    harness::TextTable tab(
        {"query", "degree 0", "1", "2", "4", "8", "16"});
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);
        std::vector<harness::Job> jobs;
        for (unsigned degree : {0u, 1u, 2u, 4u, 8u, 16u}) {
            sim::MachineConfig cfg = ctx.config();
            cfg.prefetchData = degree > 0;
            cfg.prefetchDegree = degree;
            jobs.push_back({tpcd::queryName(q) + "/degree " +
                                std::to_string(degree),
                            cfg, {&traces}, &wl.db().space()});
        }
        const std::vector<sim::SimStats> runs = session.runJobs(jobs);
        // Degree 0 (no prefetching) is the base.
        const auto base =
            static_cast<double>(runs.front().aggregate().totalCycles());
        std::vector<std::string> row{tpcd::queryName(q)};
        for (const sim::SimStats &s : runs)
            row.push_back(harness::fixed(
                100.0 * static_cast<double>(s.aggregate().totalCycles()) /
                base));
        tab.addRow(std::move(row));
    }
    tab.print(std::cout);
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_prefetch_degree", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson | harness::BenchOptions::kMemprof, run);
}
