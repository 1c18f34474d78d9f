/**
 * @file
 * Figures 6 and 7 from one set of baseline runs of Q3, Q6 and Q12.
 *
 * Figure 6: (a) normalized execution-time breakdown (Busy / Mem / MSync)
 * and (b) memory-stall decomposition by data-structure group (Data / Index
 * / Metadata / Priv).
 *
 * Figure 7: read misses in the primary and secondary caches classified by
 * the data structure missed on (Priv, Data, Index, BufDesc, BufLook,
 * LockHash, XidHash, LockSLock) and by miss type (Cold, Conf, Cohe), then
 * the absolute miss rates quoted in Section 5.1 (L1 ~3-6%, L2 global
 * ~0.5-0.8%).
 *
 * Paper reference shapes: Busy 50-70%, Mem 30-35%; Q3's shared stall is
 * dominated by Index + Metadata, Q6/Q12's by Data; Priv is roughly even
 * across queries. L1 misses are dominated by Priv/Conf everywhere; in the
 * L2, Q3 mixes metadata (Cohe, LockSLock prominent) + Index + Data, while
 * Q6/Q12 are overwhelmingly Data/Cold.
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
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Figure 6: execution time and memory-stall breakdown "
                 "(baseline machine) ===\n\n";

    const sim::MachineConfig cfg = ctx.config();
    harness::Workload wl(opts.scaleConfig(), std::min(4u, cfg.nprocs));
    session.wireMemprof(cfg, &wl.db().catalog());

    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};
    std::vector<sim::SimStats> runs;
    for (tpcd::QueryId q : queries) {
        harness::TraceSet traces = wl.trace(q);
        const harness::Job job{tpcd::queryName(q), cfg, {&traces},
                               &wl.db().space()};
        runs.push_back(session.runJobs({job}).front());
    }

    harness::TextTable fig6a(
        {"query", "cycles", "Busy%", "Mem%", "MSync%"});
    harness::TextTable fig6b(
        {"query", "Data%", "Index%", "Metadata%", "Priv%"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string name = tpcd::queryName(queries[i]);
        harness::TimeBreakdown tb = harness::timeBreakdown(runs[i]);
        fig6a.addRow({name, std::to_string(tb.total),
                      harness::fixed(100 * tb.busy),
                      harness::fixed(100 * tb.mem),
                      harness::fixed(100 * tb.msync)});

        harness::MemBreakdown mb = harness::memBreakdown(runs[i]);
        auto g = [&](sim::ClassGroup gg) {
            return harness::fixed(
                100 * mb.byGroup[static_cast<std::size_t>(gg)]);
        };
        fig6b.addRow({name, g(sim::ClassGroup::Data),
                      g(sim::ClassGroup::Index),
                      g(sim::ClassGroup::Metadata),
                      g(sim::ClassGroup::Priv)});
    }
    std::cout << "Figure 6(a): execution time breakdown\n";
    fig6a.print(std::cout);
    std::cout << "\nFigure 6(b): memory stall time by structure\n";
    fig6b.print(std::cout);

    std::cout << "=== Figure 7: miss classification by data structure "
                 "(baseline machine) ===\n\n";
    harness::TextTable rates(
        {"query", "L1 miss rate %", "L2 global miss rate %"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string name = tpcd::queryName(queries[i]);
        const sim::ProcStats agg = runs[i].aggregate();
        harness::printMissTable(
            std::cout, name + ": primary cache read misses",
            agg.l1Misses());
        std::cout << '\n';
        harness::printMissTable(
            std::cout, name + ": secondary cache read misses",
            agg.l2Misses());
        std::cout << '\n';
        rates.addRow({name, harness::fixed(100 * agg.l1MissRate(), 2),
                      harness::fixed(100 * agg.l2GlobalMissRate(), 2)});
    }
    std::cout << "Section 5.1 absolute miss rates "
                 "(paper: L1 5.5/3.4/4.8%, L2 0.8/0.6/0.5%)\n";
    rates.print(std::cout);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig6_time_breakdown", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
