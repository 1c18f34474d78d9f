/**
 * @file
 * Extension (the paper's future work, Section 7): intra-query parallelism.
 *
 * The paper runs one query per processor (inter-query parallelism) and
 * names intra-query parallelism as remaining work. This bench partitions a
 * single Q6 scan across the processors — each node aggregates a
 * contiguous block range of lineitem — and compares it against (a) one
 * processor running the whole Q6 and (b) the paper's inter-query setup.
 *
 * Expected behaviour: near-linear scan speedup (the partitions touch
 * disjoint data, so there is no extra coherence traffic), with the same
 * Data-cold-miss character as the inter-query Sequential workload.
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"

using namespace dss;

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Extension: intra-query parallelism for Q6 ===\n\n";

    const sim::MachineConfig cfg = ctx.config();
    const unsigned nprocs = std::min(4u, cfg.nprocs);
    harness::Workload wl(tpcd::ScaleConfig::paperScale(), nprocs);
    session.wireMemprof(cfg, &wl.db().catalog());
    auto run_cold = [&](const std::string &label,
                        const harness::TraceSet &traces) {
        return session.runJobs({{label, cfg, {&traces}, &wl.db().space()}})
            .front();
    };

    // (a) One processor runs the whole Q6.
    harness::TraceSet solo;
    solo.push_back(wl.traceOne(tpcd::QueryId::Q6, 0, 7919));
    const sim::SimStats s_solo = run_cold("Q6/solo", solo);

    // (b) Inter-query: one independent Q6 instance per processor (the
    // paper's setup).
    harness::TraceSet inter = wl.trace(tpcd::QueryId::Q6, 1);
    const sim::SimStats s_inter = run_cold("Q6/inter-query", inter);

    // (c) Intra-query: one Q6 split into per-processor block-range
    // partitions.
    harness::TraceSet intra = wl.traceIntraQueryQ6(1);
    const sim::SimStats s_intra = run_cold("Q6/intra-query", intra);

    harness::TextTable tab({"setup", "exec cycles", "speedup vs 1-proc",
                            "L2 Data misses", "L2 Cohe misses"});
    auto row = [&](const std::string &name, const sim::SimStats &s) {
        sim::ProcStats agg = s.aggregate();
        std::uint64_t cohe = 0;
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
            cohe += agg.l2Misses().of(static_cast<sim::DataClass>(c),
                                    sim::MissType::Cohe);
        }
        double speedup =
            static_cast<double>(s_solo.executionTime()) /
            static_cast<double>(s.executionTime());
        tab.addRow({name, std::to_string(s.executionTime()),
                    harness::fixed(speedup, 2),
                    std::to_string(
                        agg.l2Misses().byGroup(sim::ClassGroup::Data)),
                    std::to_string(cohe)});
    };
    const std::string n = std::to_string(nprocs);
    row("1 proc, whole Q6      ", s_solo);
    row(n + " procs, " + n + " Q6 queries ", s_inter);
    row(n + " procs, 1 Q6 split   ", s_intra);
    tab.print(std::cout);

    std::cout << "\nNote: 'speedup' for the inter-query row is throughput "
                 "over four queries\n(each processor still scans the whole "
                 "table); the intra-query row is true\nresponse-time "
                 "speedup for one query.\n";
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ext_intra_query", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson | harness::BenchOptions::kMemprof, run);
}
