/**
 * @file
 * Chaos sweep: run the paper's headline queries (Q3, Q6, Q12) under
 * increasing deterministic fault-injection rates with the coherence
 * invariant checker always on.
 *
 * The claim being exercised: perturbing *timing* (latency spikes, forced
 * evictions, write-buffer stall storms, stretched lock hold times) must
 * never perturb *correctness* — the protocol invariants (SWMR,
 * directory/cache agreement, write-buffer FIFO order, lock-table
 * consistency) hold at every checked state, at every fault rate. Any
 * violation makes the bench exit nonzero.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Chaos sweep: fault injection under invariant "
                 "checking ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.usePlacement(
        harness::makePlacement(opts, cfg, &wl.db().space()));
    session.wireMemprof(cfg, &wl.db().catalog());

    // Sweep a fixed ladder of rates, plus the user's --fault-rate when it
    // is not already on the ladder. Rate 0 is the control run.
    std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
    if (opts.faultRate > 0.0) {
        bool present = false;
        for (double r : rates)
            present = present || r == opts.faultRate;
        if (!present)
            rates.push_back(opts.faultRate);
    }

    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};

    harness::TextTable tab({"query", "fault rate", "faults", "exec cycles",
                            "delta%", "violations"});
    std::uint64_t total_violations = 0;

    for (tpcd::QueryId q : queries) {
        harness::TraceSet traces = wl.trace(q);
        double base_cycles = 0;
        for (double rate : rates) {
            sim::FaultConfig fc = opts.faultConfig();
            fc.rate = rate;
            sim::FaultPlan plan(fc);
            sim::InvariantChecker checker;

            harness::RunOptions ro = session.runOptions();
            ro.checker = &checker;
            ro.faults = rate > 0.0 ? &plan : nullptr;

            sim::SimStats stats = harness::runCold(cfg, traces, ro);
            session.addRun(std::string(tpcd::queryName(q)) + "@rate=" +
                               harness::fixed(rate, 4),
                           stats);

            const auto cycles =
                static_cast<double>(stats.aggregate().totalCycles());
            if (rate == 0.0)
                base_cycles = cycles;
            const double delta =
                base_cycles > 0 ? 100.0 * (cycles - base_cycles) /
                                      base_cycles
                                : 0.0;

            const std::uint64_t viol = checker.totalViolations();
            total_violations += viol;
            tab.addRow({tpcd::queryName(q), harness::fixed(rate, 4),
                        std::to_string(plan.counters().injected),
                        std::to_string(static_cast<std::uint64_t>(cycles)),
                        harness::fixed(delta, 2), std::to_string(viol)});
            for (const sim::CheckViolation &v : checker.violations())
                std::cerr << "  [" << invariantName(v.inv) << "] "
                          << v.detail << '\n';
        }
    }

    tab.print(std::cout);
    std::cout << "\nVerdict: "
              << (total_violations == 0
                      ? "stable — every fault rate completed with zero "
                        "invariant violations"
                      : "UNSTABLE — invariant violations detected (see "
                        "stderr)")
              << ".\n";

    bool ok = session.finish(cfg, std::cerr);
    return ok && total_violations == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("chaos_fault_sweep", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
