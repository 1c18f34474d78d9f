/**
 * @file
 * Extension: the TPC-D update functions UF1/UF2 (the paper describes them
 * in Section 2.2.2 but traces read-only queries only, because Postgres95
 * implements just relation-level datalocks).
 *
 * This bench characterizes their single-processor memory behaviour the
 * same way Figures 6/7 characterize the read-only queries: time breakdown
 * and the miss mix by structure. Expected character: write-dominated
 * traffic with heavy Index activity (B-tree maintenance) and lock-manager
 * metadata, i.e. far more "demanding on the locking algorithm" than the
 * read-only queries — the paper's stated reason for excluding them.
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "tpcd/updates.hh"

using namespace dss;

namespace {

sim::TraceStream
traceUpdate(tpcd::TpcdDb &db, bool uf1, unsigned orders, std::uint64_t seed)
{
    sim::TraceStream stream;
    db::TracedMemory mem(db.space(), 0, stream);
    db::PrivateHeap priv(db.space(), 0);
    std::size_t mark = priv.mark();
    const auto xid = static_cast<db::Xid>(7000 + seed);
    db::ExecContext ctx{mem, db.catalog(), priv, xid};
    try {
        if (uf1)
            tpcd::runUF1(db, ctx, orders, seed);
        else
            tpcd::runUF2(db, ctx, orders);
    } catch (const db::QueryAbort &) {
        // Abort cleanly: drop every lock this xid still holds and free
        // its private allocations, so a second capture starts from
        // scratch.
        db.lockmgr().releaseAll(mem, xid);
        priv.rewind(mark);
        throw;
    }
    priv.rewind(mark);
    return stream;
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Extension: TPC-D update functions UF1 / UF2 "
                 "(single processor) ===\n\n";

    tpcd::TpcdDb db(tpcd::ScaleConfig::paperScale(), 1);
    // TPC-D updates touch ~0.1% of orders per function; scale that up a
    // bit so the trace is meaningful.
    const unsigned batch = db.scale().orders() / 20;

    sim::MachineConfig cfg = ctx.config();
    cfg.nprocs = 1;
    session.usePlacement(harness::makePlacement(opts, cfg, &db.space()));
    session.wireMemprof(cfg, &db.catalog());

    // A rival transaction holds the orders relation write-locked, so the
    // first UF1 capture hits a Write/Write conflict and aborts. The rival
    // then commits and UF1 is captured again, so the function survives
    // the contended schedule instead of crashing — the robustness story
    // for the workloads the paper excluded. The conflict happens during
    // capture, before any simulated run.
    constexpr db::Xid kRivalXid = 6999;
    sim::TraceStream rival_trace;
    db::TracedMemory rival_mem(db.space(), 0, rival_trace);
    db.lockmgr().lockRelation(rival_mem, kRivalXid, db.orders,
                              db::LockMode::Write);

    unsigned aborts = 0;

    harness::TextTable tab({"function", "orders", "exec cycles", "Busy%",
                            "Mem%", "writes/reads"});
    for (bool uf1 : {true, false}) {
        sim::TraceStream trace;
        try {
            trace = traceUpdate(db, uf1, batch, 17);
        } catch (const db::QueryAbort &) {
            ++aborts;
            db.lockmgr().releaseAll(rival_mem, kRivalXid); // rival commits
            trace = traceUpdate(db, uf1, batch, 17);
        }
        harness::TraceSet set;
        set.push_back(std::move(trace));
        sim::SimStats stats =
            harness::runCold(cfg, set, session.runOptions());
        sim::ProcStats agg = stats.aggregate();
        auto counts = set[0].counts();
        tab.addRow(
            {uf1 ? "UF1 (insert)" : "UF2 (delete)", std::to_string(batch),
             std::to_string(agg.totalCycles()),
             harness::pct(static_cast<double>(agg.busy),
                          static_cast<double>(agg.totalCycles())),
             harness::pct(static_cast<double>(agg.memStall),
                          static_cast<double>(agg.totalCycles())),
             harness::fixed(static_cast<double>(counts.writes) /
                                static_cast<double>(
                                    std::max<std::uint64_t>(1,
                                                            counts.reads)),
                            2)});

        std::cout << (uf1 ? "UF1" : "UF2")
                  << ": L2 read-miss mix by structure\n";
        harness::printMissTable(std::cout, "", agg.l2Misses());
        std::cout << '\n';
    }
    tab.print(std::cout);

    std::cout << "\nLock conflicts: " << aborts
              << " Write/Write abort(s) across both functions; each "
                 "aborted function was captured again once the rival "
                 "transaction committed.\n";

    std::cout
        << "\nContext: the read-only queries write almost nothing "
           "(write/read ratios\nnear zero); the update functions are "
           "write-heavy and spend their shared\nmisses on indices and "
           "metadata — with relation-level-only datalocks each\nstatement "
           "holds an exclusive table lock, which is why the paper calls "
           "update\nqueries 'much more demanding on the locking "
           "algorithm' and excludes them.\n";
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ext_update_queries", argc, argv,
                                 harness::BenchOptions::kPlacement |
            harness::BenchOptions::kJson | harness::BenchOptions::kMemprof, run);
}
