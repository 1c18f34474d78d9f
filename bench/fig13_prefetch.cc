/**
 * @file
 * Figure 13: impact of simple sequential prefetching for database data.
 * For each access to Data-class memory the hardware prefetches the next 4
 * primary-cache lines into the L1. Execution time is shown for the
 * baseline (Base) and baseline+prefetch (Opt), normalized to Base = 100,
 * broken into Busy / PMem / SMem / MSync.
 *
 * Paper reference shapes: Q6 and Q12 gain a modest 5-6%; Q3 slows down
 * slightly; PMem increases a little everywhere (prefetches disturb the
 * primary cache).
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
    std::cout << "=== Figure 13: sequential data prefetching (Base = 100) "
                 "===\n\n";

    const sim::MachineConfig base_cfg = ctx.config();
    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, base_cfg.nprocs));
    session.wireMemprof(base_cfg, &wl.db().catalog());
    sim::MachineConfig opt_cfg = base_cfg;
    opt_cfg.prefetchData = true;
    opt_cfg.prefetchDegree = 4;

    harness::TextTable tab({"query", "config", "Busy", "PMem", "SMem",
                            "MSync", "Total", "pf issued", "pf useful"});

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);
        const std::string name = tpcd::queryName(q);
        const std::vector<sim::SimStats> runs = session.runJobs(
            {{name + "/Base", base_cfg, {&traces}, &wl.db().space()},
             {name + "/Opt", opt_cfg, {&traces}, &wl.db().space()}});
        const sim::ProcStats base = runs[0].aggregate();
        const sim::ProcStats opt = runs[1].aggregate();

        const double denom = static_cast<double>(base.totalCycles());
        auto row = [&](const char *cfg_name, const sim::ProcStats &s) {
            auto n = [&](sim::Cycles c) {
                return harness::fixed(
                    100.0 * static_cast<double>(c) / denom, 1);
            };
            tab.addRow({name, cfg_name, n(s.busy),
                        n(s.pmem()), n(s.smem()), n(s.syncStall),
                        n(s.totalCycles()),
                        std::to_string(s.prefetchesIssued),
                        std::to_string(s.prefetchesUseful)});
        };
        row("Base", base);
        row("Opt", opt);
    }
    tab.print(std::cout);
    return session.finish(base_cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig13_prefetch", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson | harness::BenchOptions::kMemprof, run);
}
