/**
 * @file
 * Extension: nested queries (the paper's first "future work" item).
 *
 * The flat Q4 the paper's Table 1 profiles scans orders only — a
 * Sequential query. TPC-D Q4's real SQL contains an EXISTS subquery over
 * lineitem; executing it nested (a parameterized inner index scan per
 * order) turns the access pattern into per-tuple index probes.
 *
 * This bench runs both variants on the baseline machine and shows the
 * class flip: the nested variant's shared misses move from Data/Cold to
 * the Index + Metadata / coherence mix of the paper's Index queries, and
 * MSync appears.
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
    std::cout << "=== Extension: flat vs. nested Q4 ===\n\n";

    const sim::MachineConfig cfg = ctx.config();
    harness::Workload wl(tpcd::ScaleConfig::paperScale(),
                         std::min(4u, cfg.nprocs));
    session.wireMemprof(cfg, &wl.db().catalog());

    harness::TraceSet flat = wl.trace(tpcd::QueryId::Q4, 1);
    harness::TraceSet nested = wl.traceCustom(
        [](tpcd::TpcdDb &db, sim::ProcId p) {
            return tpcd::buildQ4Nested(db, 7919 + p);
        });

    harness::TextTable tab({"variant", "exec cycles", "Busy%", "Mem%",
                            "MSync%", "L2 Data%", "L2 Index%",
                            "L2 Meta%"});
    const char *const names[] = {"flat Q4", "nested Q4 (EXISTS)"};
    const std::vector<sim::SimStats> runs = session.runJobs(
        {{names[0], cfg, {&flat}, &wl.db().space()},
         {names[1], cfg, {&nested}, &wl.db().space()}});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const char *name = names[i];
        const sim::ProcStats agg = runs[i].aggregate();
        const double total = static_cast<double>(agg.totalCycles());
        const double misses =
            std::max(1.0, static_cast<double>(agg.l2Misses().total()));
        tab.addRow(
            {name, std::to_string(agg.totalCycles()),
             harness::pct(static_cast<double>(agg.busy), total),
             harness::pct(static_cast<double>(agg.memStall), total),
             harness::pct(static_cast<double>(agg.syncStall), total),
             harness::pct(static_cast<double>(
                              agg.l2Misses().byGroup(sim::ClassGroup::Data)),
                          misses),
             harness::pct(
                 static_cast<double>(
                     agg.l2Misses().byGroup(sim::ClassGroup::Index)),
                 misses),
             harness::pct(
                 static_cast<double>(
                     agg.l2Misses().byGroup(sim::ClassGroup::Metadata)),
                 misses)});
    }
    tab.print(std::cout);

    std::cout << "\nReading: nesting flips Q4 from the Sequential class "
                 "(Data-dominated cold\nmisses, no MSync) to the Index "
                 "class (index + metadata misses, metalock\ntime) — the "
                 "paper's query taxonomy is determined by access path, "
                 "not by the\nquery's business content.\n";
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ext_nested_query", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson | harness::BenchOptions::kMemprof, run);
}
