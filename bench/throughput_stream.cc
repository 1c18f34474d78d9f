/**
 * @file
 * Query-stream throughput: the scheduler (src/sched/) admitting seeded
 * streams of Q3/Q6/Q12 instances onto the simulated machine.
 *
 * Two experiments:
 *
 *  1. Closed-loop sweep: offered load (concurrent clients) x processor
 *     count. Reports makespan, completed queries per million simulated
 *     cycles, and the p50/p95/p99 latency tail per point.
 *  2. Open-loop sweep: exponential arrivals at decreasing mean
 *     inter-arrival gaps (rising offered load) on the --machine's own
 *     processors (4 on the default baseline) — the p95-vs-load curve of
 *     EXPERIMENTS.md.
 *
 * Every point draws its traces from one shared trace cache; its hit and
 * miss counts are printed per point.
 *
 * Stream knobs: --stream <n>, --stream-seed <s>,
 * --stream-policy <fifo|shortest>.
 */

#include <algorithm>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "sched/scheduler.hh"

using namespace dss;

namespace {

void
printPoint(const std::string &label, const sched::StreamResult &r)
{
    std::cout << "  " << label << ": makespan=" << r.makespan
              << " thr=" << harness::fixed(r.throughputPerMcycle, 3)
              << "/Mcyc p50=" << harness::fixed(r.latency.p50, 0)
              << " p95=" << harness::fixed(r.latency.p95, 0)
              << " p99=" << harness::fixed(r.latency.p99, 0)
              << " cache=" << r.cache.hits << "h/" << r.cache.misses
              << "m\n";
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    const unsigned instances =
        opts.streamInstances ? opts.streamInstances : 12;
    const auto policy = sched::parsePolicy(opts.streamPolicy);
    if (!policy) {
        std::cerr << "throughput_stream: bad --stream-policy\n";
        return 2;
    }

    std::cout << "=== Query-stream throughput (" << instances
              << " instances, seed " << opts.streamSeed << ", "
              << opts.streamPolicy << ") ===\n\n";

    // Every processor a point runs on needs a private heap: the
    // closed-loop sweep uses up to 4, the open-loop points all of the
    // machine's.
    harness::Workload wl(opts.scaleConfig(),
                         std::max(4u, ctx.config().nprocs));
    session.wireMemprof(ctx.config(), &wl.db().catalog());

    // One shared cache across every sweep point: captures are pure, so
    // entries are valid wherever the key recurs.
    sched::TraceCache cache;

    sched::StreamConfig base;
    base.instances = instances;
    base.seed = opts.streamSeed;
    base.policy = *policy;

    obs::Json &figure = session.extra();

    // One stream on a fresh machine with its own placement policy and the
    // session's observers; @p registry receives the end-of-stream
    // snapshot when --json.
    auto run_stream = [&](const sim::MachineConfig &cfg,
                          const sched::StreamConfig &scfg,
                          obs::Json &registry) {
        const std::unique_ptr<sim::PlacementPolicy> placement =
            harness::makePlacement(opts.placement, cfg, &wl.db().space());
        harness::RunOptions ro = session.observers();
        ro.placement = placement.get();
        ro.registrySnapshot = session.wantJson() ? &registry : nullptr;
        return sched::StreamScheduler(wl, cfg, scfg, ro, &cache).run();
    };

    // Solo calibration anchors: one single-instance stream per traced
    // query fills the report's standard "runs" array (the schema
    // json_validate checks) with the solo stats that make the stream
    // latencies interpretable — and that serviceRank's ordering is
    // calibrated against. Keys land in the shared cache, so the sweep
    // below re-serves them as hits.
    for (tpcd::QueryId q :
         {tpcd::QueryId::Q3, tpcd::QueryId::Q6, tpcd::QueryId::Q12}) {
        sched::StreamConfig solo = base;
        solo.instances = 1;
        solo.mix = {{q, 1}};
        solo.paramVariants = 1;
        obs::Json registry;
        const sim::SimStats stats =
            run_stream(ctx.config(), solo, registry).records.front().stats;
        session.record("solo " + tpcd::queryName(q), stats,
                       std::move(registry));
    }

    auto runPoint = [&](const std::string &label,
                        const sim::MachineConfig &cfg,
                        const sched::StreamConfig &scfg) {
        obs::Json registry;
        const sched::StreamResult r = run_stream(cfg, scfg, registry);
        printPoint(label, r);
        if (session.wantJson()) {
            obs::Json point = toJson(r, /*include_run_stats=*/false);
            point["label"] = label;
            point["nprocs"] = cfg.nprocs;
            point["registry"] = std::move(registry);
            figure["points"].push(std::move(point));
        }
    };

    std::cout << "Closed-loop sweep: clients x processors\n";
    const unsigned client_sweep[] = {1, 2, 4, 6};
    const unsigned proc_sweep[] = {2, 4};
    for (unsigned nprocs : proc_sweep) {
        sim::MachineConfig cfg = ctx.config();
        cfg.nprocs = nprocs;
        for (unsigned clients : client_sweep) {
            sched::StreamConfig scfg = base;
            scfg.mode = sched::ArrivalMode::Closed;
            scfg.clients = clients;
            runPoint("closed c" + std::to_string(clients) + " p" +
                         std::to_string(nprocs),
                     cfg, scfg);
        }
    }

    std::cout << "\nOpen-loop sweep: offered load on the "
              << ctx.config().nprocs << "-proc baseline\n";
    const sim::Cycles gap_sweep[] = {2000000, 1000000, 500000, 250000};
    for (sim::Cycles gap : gap_sweep) {
        sched::StreamConfig scfg = base;
        scfg.mode = sched::ArrivalMode::Open;
        scfg.meanInterarrival = gap;
        runPoint("open gap" + std::to_string(gap), ctx.config(), scfg);
    }

    return session.finish(ctx.config(), std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("throughput_stream", argc, argv,
                              harness::BenchOptions::kAll |
                                  harness::BenchOptions::kStream,
                              run);
}
