/**
 * @file
 * Standalone line-level memory-profile report for Q3, Q6 and Q12 on the
 * baseline machine: the hottest cache lines ranked by misses, each
 * resolved to the database structure that owns it, with the coherence
 * misses split into true and false sharing (Torrellas word-granularity
 * criterion) — the line-level companion to Figure 7's class-level
 * classification.
 *
 * With --json, the report document carries one full "memprof" profile
 * per query plus the per-processor registry counters. The profile is the
 * machine's own per-line attribution, so its totals equal those counters
 * (MemProfile.ReportReconcilesWithMachineCounters builds this report and
 * checks every identity).
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"

using namespace dss;

namespace {

std::string
u64(const obs::Json &rec, const std::string &key)
{
    const obs::Json *v = rec.find(key);
    return std::to_string(v ? v->asUint() : 0);
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Line-level memory profile: hot lines, sharing "
                 "classification, symbols ===\n\n";

    const sim::MachineConfig cfg = ctx.config();
    harness::Workload wl(opts.scaleConfig(), std::min(4u, cfg.nprocs));

    obs::RegionMap symbols;
    wl.db().catalog().describeRegions(symbols);

    obs::Json profiles = obs::Json::object();
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);

        // One fresh profile per query, attached to that query's cold
        // run, so each report is independent of query order.
        obs::MemProfile prof(cfg);
        harness::Job job{tpcd::queryName(q), cfg, {&traces},
                         &wl.db().space()};
        job.memProfile = &prof;
        session.runJobs({job});

        obs::Json doc = prof.toJson(opts.memprofTopN, &symbols);
        harness::TextTable tab({"symbol", "class", "accesses", "misses",
                                "coheTrue", "coheFalse", "upgrades"});
        const obs::Json *lines = doc.find("lines");
        for (std::size_t i = 0; lines && i < lines->size(); ++i) {
            const obs::Json &rec = lines->at(i);
            const std::uint64_t misses =
                rec.find("cold")->asUint() + rec.find("conf")->asUint() +
                rec.find("coheTrue")->asUint() +
                rec.find("coheFalse")->asUint();
            tab.addRow({rec.find("symbol")->asString(),
                        rec.find("class")->asString(),
                        u64(rec, "accesses"), std::to_string(misses),
                        u64(rec, "coheTrue"), u64(rec, "coheFalse"),
                        u64(rec, "upgrades")});
        }
        std::cout << tpcd::queryName(q) << ": top "
                  << opts.memprofTopN << " lines by misses ("
                  << doc.find("linesTracked")->asUint()
                  << " lines tracked)\n";
        tab.print(std::cout);

        const obs::Json *totals = doc.find("totals");
        std::cout << "totals: " << u64(*totals, "accesses")
                  << " accesses, coheTrue " << u64(*totals, "coheTrue")
                  << ", coheFalse " << u64(*totals, "coheFalse")
                  << ", upgrades " << u64(*totals, "upgrades")
                  << ", 3-hop " << u64(*totals, "hop3") << "\n\n";

        profiles[tpcd::queryName(q)] = std::move(doc);
    }

    session.extra()["memprof"] = std::move(profiles);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("report_memprof", argc, argv,
                                 harness::BenchOptions::kJson |
            harness::BenchOptions::kScale |
            harness::BenchOptions::kMemprof, run);
}
