/**
 * @file
 * Ablation: cache associativity. The paper's baseline fixes a
 * direct-mapped L1 and a 2-way L2; this sweep separates conflict misses
 * from capacity effects. Expectation from the Figure 7 analysis: the L1's
 * Priv misses are overwhelmingly conflicts, so associativity helps them
 * disproportionately; the Sequential queries' L2 Data misses are cold and
 * do not care.
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
    std::cout << "=== Ablation: cache associativity (baseline sizes) "
                 "===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, ctx.config().nprocs));

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6}) {
        harness::TraceSet traces = wl.trace(q);
        harness::TextTable tab({"L1-way/L2-way", "exec cycles",
                                "L1 Priv misses", "L1 Priv Conf",
                                "L2 Data misses"});
        struct Point
        {
            std::size_t l1, l2;
        };
        const Point points[] = {{1, 2}, {2, 2}, {4, 4}, {8, 8}};
        std::vector<harness::Job> jobs;
        for (const Point &p : points) {
            sim::MachineConfig cfg = ctx.config();
            cfg.l1().assoc = p.l1;
            cfg.l2().assoc = p.l2;
            jobs.push_back({tpcd::queryName(q) + "/" + std::to_string(p.l1) +
                                "-way/" + std::to_string(p.l2) + "-way",
                            cfg, {&traces}, &wl.db().space()});
        }
        const std::vector<sim::SimStats> runs = session.runJobs(jobs);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Point &p = points[i];
            const sim::ProcStats agg = runs[i].aggregate();
            tab.addRow(
                {std::to_string(p.l1) + "/" + std::to_string(p.l2),
                 std::to_string(agg.totalCycles()),
                 std::to_string(
                     agg.l1Misses().byGroup(sim::ClassGroup::Priv)),
                 std::to_string(agg.l1Misses().byGroupAndType(
                     sim::ClassGroup::Priv, sim::MissType::Conf)),
                 std::to_string(
                     agg.l2Misses().byGroup(sim::ClassGroup::Data))});
        }
        std::cout << tpcd::queryName(q) << '\n';
        tab.print(std::cout);
        std::cout << '\n';
    }
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_associativity", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson, run);
}
