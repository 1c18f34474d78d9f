/**
 * @file
 * Fault-injection determinism and graceful-failure tests (sim/fault.hh,
 * sim/error.hh, harness/guard.hh).
 *
 * The contract under test: a FaultPlan's decisions are a pure function
 * of (seed, run, proc, trace position, kind) — the same seed yields a
 * bit-identical fault schedule on every rerun; rate 0 changes nothing at
 * all; injected query aborts are always retried to completion; and a
 * simulated deadlock surfaces as a typed SimError with a per-processor
 * dump instead of an assert.
 */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/stats_json.hh"
#include "sim/arena.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/machine.hh"

namespace {

using namespace dss;
using namespace dss::sim;

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

/** Randomized traces with shared lines and locks (contended). */
std::vector<TraceStream>
fuzzTraces(std::uint64_t seed, unsigned nprocs)
{
    std::mt19937_64 rng(seed);
    std::vector<TraceStream> traces;
    for (ProcId p = 0; p < nprocs; ++p) {
        TraceStream t;
        const Addr priv_base =
            AddressSpace::kPrivateBase + p * AddressSpace::kPrivateStride;
        const Addr shared_base = 0x1000'0000;
        const Addr lock_base = 0x2000'0000;
        std::uniform_int_distribution<int> pct(0, 99);
        std::uniform_int_distribution<Addr> off(0, (4 << 10) - 8);
        std::uniform_int_distribution<std::uint32_t> busy(1, 30);
        bool in_cs = false;
        for (std::size_t i = 0; i < 300; ++i) {
            const int r = pct(rng);
            if (!in_cs && r < 6) {
                t.record(
                    TraceEntry::lockAcq(lock_base, DataClass::LockSLock));
                in_cs = true;
            } else if (in_cs && r < 20) {
                t.record(
                    TraceEntry::lockRel(lock_base, DataClass::LockSLock));
                in_cs = false;
            } else if (r < 40) {
                t.record(TraceEntry::busy(busy(rng)));
            } else {
                const bool shared = pct(rng) < 40;
                const Addr a = shared ? shared_base + (off(rng) & ~7ull)
                                      : priv_base + (off(rng) & ~7ull);
                if (pct(rng) < 30)
                    t.record(TraceEntry::write(
                        a, shared ? DataClass::Data : DataClass::Priv, 8));
                else
                    t.record(TraceEntry::read(
                        a, shared ? DataClass::Data : DataClass::Priv, 8));
            }
        }
        if (in_cs)
            t.record(TraceEntry::lockRel(lock_base, DataClass::LockSLock));
        traces.push_back(std::move(t));
    }
    return traces;
}

std::vector<const TraceStream *>
ptrsOf(const std::vector<TraceStream> &traces)
{
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &t : traces)
        ptrs.push_back(&t);
    return ptrs;
}

TEST(FaultDeterminism, ScheduleAndStatsRepeatOnRerun)
{
    // The schedule and the stats it perturbs repeat exactly when the same
    // seed replays the same traces on a fresh machine.
    const MachineConfig cfg = MachineConfig::baseline();
    const auto traces = fuzzTraces(7, cfg.nprocs);

    FaultConfig fc;
    fc.seed = 42;
    fc.rate = 0.02;

    std::vector<std::vector<FaultPlan::Event>> schedules;
    std::vector<std::string> fingerprints;
    for (int rerun = 0; rerun < 2; ++rerun) {
        Machine m(cfg);
        FaultPlan plan(fc);
        m.setFaultPlan(&plan);
        fingerprints.push_back(obs::toJson(m.run(ptrsOf(traces))).dump());
        schedules.push_back(plan.schedule());
    }
    ASSERT_FALSE(schedules[0].empty()) << "rate 0.02 fired nothing";
    EXPECT_EQ(schedules[0], schedules[1]);
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(FaultDeterminism, RateZeroPlanChangesNothing)
{
    const MachineConfig cfg = MachineConfig::baseline();
    const auto traces = fuzzTraces(3, cfg.nprocs);

    Machine plain(cfg);
    const std::string base =
        obs::toJson(plain.run(ptrsOf(traces))).dump(2);

    Machine m(cfg);
    FaultPlan plan(FaultConfig{}); // rate 0
    m.setFaultPlan(&plan);
    const std::string with_plan = obs::toJson(m.run(ptrsOf(traces))).dump(2);

    EXPECT_EQ(plan.counters().injected, 0u);
    EXPECT_TRUE(plan.schedule().empty());
    EXPECT_EQ(base, with_plan);
}

TEST(FaultInjection, FaultsFireAndPerturbTiming)
{
    const MachineConfig cfg = MachineConfig::baseline();
    const auto traces = fuzzTraces(5, cfg.nprocs);

    Machine plain(cfg);
    const SimStats base = plain.run(ptrsOf(traces));

    FaultConfig fc;
    fc.seed = 1;
    fc.rate = 0.05;
    Machine m(cfg);
    FaultPlan plan(fc);
    m.setFaultPlan(&plan);
    const SimStats faulted = m.run(ptrsOf(traces));

    const FaultPlan::Counters c = plan.counters();
    EXPECT_GT(c.injected, 0u);
    // Every per-read/-write kind should have had a chance at this rate.
    EXPECT_GT(c.byKind[static_cast<std::size_t>(FaultKind::LatencySpike)],
              0u);
    EXPECT_GT(faulted.aggregate().totalCycles(),
              base.aggregate().totalCycles());
}

TEST(FaultInjection, InjectedQueryAbortsAreRetriedToCompletion)
{
    const MachineConfig cfg = MachineConfig::baseline();
    const auto traces = fuzzTraces(13, cfg.nprocs);
    harness::TraceSet set;
    for (const TraceStream &t : traces)
        set.push_back(t);

    FaultConfig fc;
    fc.seed = 2;
    fc.rate = 0.9; // query aborts all but guaranteed
    fc.kinds = FaultConfig::bitOf(FaultKind::QueryAbort);
    FaultPlan plan(fc);

    harness::RunOptions opts;
    opts.faults = &plan;
    SimStats s = harness::runCold(cfg, set, opts); // must not throw
    EXPECT_GT(s.aggregate().totalCycles(), 0u);

    const FaultPlan::Counters c = plan.counters();
    ASSERT_GT(c.aborts, 0u);
    EXPECT_LE(c.aborts, fc.maxAbortsPerQuery);
    // Every injected abort consumed exactly one retry, with backoff.
    EXPECT_EQ(c.retries, c.aborts);
    EXPECT_GT(c.backoffCycles, 0u);
}

TEST(FaultInjection, ChainedRunsGetDistinctSchedules)
{
    const MachineConfig cfg = MachineConfig::baseline();
    const auto traces = fuzzTraces(17, cfg.nprocs);

    FaultConfig fc;
    fc.seed = 4;
    fc.rate = 0.05;
    Machine m(cfg);
    FaultPlan plan(fc);
    m.setFaultPlan(&plan);
    m.run(ptrsOf(traces));
    const auto first = plan.schedule();
    m.run(ptrsOf(traces)); // same traces, next run index
    const auto second = plan.schedule();

    ASSERT_GT(second.size(), first.size());
    // The second run's events carry the new run index, and the schedule
    // differs from a replay of the first (different hash inputs).
    std::vector<FaultPlan::Event> added(second.begin() + first.size(),
                                        second.end());
    ASSERT_FALSE(added.empty());
    for (const FaultPlan::Event &e : added)
        EXPECT_EQ(e.run, 2u);
}

TEST(FaultInjection, ProcessorsPastTheEighthFaultToo)
{
    // scaled64 has 64 processors; a fault plan covers all of them.
    FaultConfig fc;
    fc.rate = 1.0;
    FaultPlan plan(fc);
    plan.beginRun();
    EXPECT_EQ(plan.readDelay(40, 3), fc.spikeCycles);
    const FaultPlan::Event spike{FaultKind::LatencySpike, 40, 1, 3,
                                 fc.spikeCycles};
    EXPECT_EQ(plan.schedule(), std::vector<FaultPlan::Event>{spike});
    EXPECT_EQ(plan.counters().injected, 1u);
}

TEST(GracefulFailure, DeadlockThrowsSimErrorWithProcessorDump)
{
    const MachineConfig cfg = MachineConfig::baseline();
    constexpr Addr kWord = 0x2000'0000;
    // Proc 0 acquires and never releases; proc 1 then blocks forever.
    std::vector<TraceStream> traces;
    traces.push_back(streamOf({
        TraceEntry::lockAcq(kWord, DataClass::LockSLock),
        TraceEntry::busy(50),
    }));
    traces.push_back(streamOf({
        TraceEntry::busy(10),
        TraceEntry::lockAcq(kWord, DataClass::LockSLock),
        TraceEntry::busy(50),
    }));
    for (ProcId p = 2; p < cfg.nprocs; ++p)
        traces.push_back(streamOf({TraceEntry::busy(5)}));

    Machine m(cfg);
    try {
        m.run(ptrsOf(traces));
        FAIL() << "deadlocked run returned normally";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        obs::Json dump = e.dump(); // operator[] is non-const
        ASSERT_FALSE(dump["procs"].isNull());
        EXPECT_EQ(dump["procs"].size(), cfg.nprocs);
        ASSERT_FALSE(dump["locks"].isNull());
    }
}

} // namespace
