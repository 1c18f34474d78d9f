/**
 * @file
 * Validation of the invariant checker (sim/check.hh), from both sides:
 *
 *  - Deliberately corrupted machine state must flag exactly the invariant
 *    that was broken (a checker that can't see planted bugs is useless).
 *  - Unperturbed runs — real TPC-D queries and a 50-seed fuzz over
 *    randomized traces — must produce zero violations, and enabling the
 *    checker must not change a single statistic.
 */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/stats_json.hh"
#include "sim/arena.hh"
#include "sim/check.hh"
#include "sim/machine.hh"
#include "verify/model.hh"

namespace {

using namespace dss;
using namespace dss::sim;

// ---------------------------------------------------------------------
// Corruption tests: break one invariant, expect exactly that flag.
// ---------------------------------------------------------------------

TEST(CheckerCorruption, TwoDirtyCopiesFlagSwmr)
{
    Machine m(MachineConfig::baseline());
    m.l2(0).fill(0x40, true);
    m.l2(1).fill(0x40, true);
    // Make the directory's own story self-consistent enough that the
    // second dirty copy is the headline problem.
    Directory::Entry &e = m.directoryForTest().entry(0x40);
    e.state = Directory::State::Dirty;
    e.owner = 0;
    e.sharers = 1;

    InvariantChecker chk;
    chk.checkLine(m, 0x40);
    EXPECT_EQ(chk.countOf(Invariant::Swmr), 1u);
    EXPECT_EQ(chk.countOf(Invariant::Inclusion), 0u);
    EXPECT_EQ(chk.countOf(Invariant::WbFifo), 0u);
    EXPECT_EQ(chk.countOf(Invariant::LockState), 0u);
    ASSERT_FALSE(chk.violations().empty());
    EXPECT_NE(chk.violations()[0].detail.find("multiple dirty copies"),
              std::string::npos);
}

TEST(CheckerCorruption, CachedCopyUnderUncachedEntryFlagsDirState)
{
    Machine m(MachineConfig::baseline());
    // A clean copy the directory knows nothing about.
    m.l2(2).fill(0x80, false);

    InvariantChecker chk;
    chk.checkLine(m, 0x80);
    EXPECT_EQ(chk.totalViolations(), 1u);
    EXPECT_EQ(chk.countOf(Invariant::DirState), 1u);
    EXPECT_NE(chk.violations()[0].detail.find("Uncached"),
              std::string::npos);
}

TEST(CheckerCorruption, StaleSharerBitFlagsDirState)
{
    Machine m(MachineConfig::baseline());
    m.l2(0).fill(0xC0, false);
    Directory::Entry &e = m.directoryForTest().entry(0xC0);
    e.state = Directory::State::Shared;
    e.sharers = 0b0011; // proc 1's bit is stale: it holds no copy

    InvariantChecker chk;
    chk.checkLine(m, 0xC0);
    EXPECT_EQ(chk.totalViolations(), 1u);
    EXPECT_EQ(chk.countOf(Invariant::DirState), 1u);
    EXPECT_NE(chk.violations()[0].detail.find("no copy"),
              std::string::npos);
}

TEST(CheckerCorruption, L1LineWithoutL2LineFlagsInclusion)
{
    Machine m(MachineConfig::baseline());
    m.l1(1).fill(0x40, false); // L2 does not hold the enclosing line

    InvariantChecker chk;
    chk.checkLine(m, 0x40);
    EXPECT_EQ(chk.totalViolations(), 1u);
    EXPECT_EQ(chk.countOf(Invariant::Inclusion), 1u);
    EXPECT_EQ(chk.violations()[0].proc, 1u);
}

TEST(CheckerCorruption, ReorderedWriteBufferFlagsWbFifo)
{
    Machine m(MachineConfig::baseline());
    WriteBuffer &wb = m.writeBufferForTest(0);
    wb.push(0, 100, 0x40);
    wb.push(0, 100, 0x80);

    InvariantChecker chk;
    chk.checkWriteBuffer(m, 0);
    EXPECT_EQ(chk.totalViolations(), 0u); // FIFO by construction

    wb.corruptReorderForTest();
    chk.checkWriteBuffer(m, 0);
    EXPECT_EQ(chk.totalViolations(), 1u);
    EXPECT_EQ(chk.countOf(Invariant::WbFifo), 1u);
    EXPECT_EQ(chk.violations()[0].proc, 0u);
}

TEST(CheckerCorruption, DroppedLockHolderFlagsLockState)
{
    Machine m(MachineConfig::baseline());
    LockTable &locks = m.locksForTest();
    constexpr Addr kWord = 0x2000'0000;
    ASSERT_TRUE(locks.tryAcquire(kWord, 0));
    locks.addWaiter(kWord, 1);

    InvariantChecker chk;
    chk.checkLocks(m);
    EXPECT_EQ(chk.totalViolations(), 0u); // held + one waiter is fine

    locks.corruptDropHolderForTest(kWord); // lost grant
    chk.checkLocks(m);
    EXPECT_EQ(chk.totalViolations(), 1u);
    EXPECT_EQ(chk.countOf(Invariant::LockState), 1u);
    EXPECT_NE(chk.violations()[0].detail.find("free lock"),
              std::string::npos);
}

TEST(CheckerCorruption, RecordingCapsButCountsKeepGrowing)
{
    Machine m(MachineConfig::baseline());
    InvariantChecker chk;
    for (unsigned i = 0; i < InvariantChecker::kMaxRecorded + 10; ++i) {
        m.l2(0).fill(0x1000 + i * 64, false); // Uncached-entry violation
        chk.checkLine(m, 0x1000 + i * 64);
    }
    EXPECT_EQ(chk.violations().size(), InvariantChecker::kMaxRecorded);
    EXPECT_EQ(chk.totalViolations(), InvariantChecker::kMaxRecorded + 10);
}

// ---------------------------------------------------------------------
// Clean runs: real queries and fuzzed traces must not trip the checker,
// and the checker must not perturb a single statistic.
// ---------------------------------------------------------------------

TEST(CheckerClean, HeadlineQueriesHaveZeroViolationsAndUnchangedStats)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    // The prefetching machine too: prefetch fills are checked with no
    // tolerance for unregistered copies.
    MachineConfig prefetching = MachineConfig::baseline();
    prefetching.prefetchData = true;
    for (const MachineConfig &cfg :
         {MachineConfig::baseline(), prefetching}) {
        for (tpcd::QueryId q :
             {tpcd::QueryId::Q3, tpcd::QueryId::Q6, tpcd::QueryId::Q12}) {
            harness::TraceSet traces = wl.trace(q);
            // Baseline: checker off.
            const std::string base =
                obs::toJson(harness::runCold(cfg, traces)).dump(2);

            // Checker on: zero violations, byte-identical stats.
            InvariantChecker chk;
            harness::RunOptions checked;
            checked.checker = &chk;
            const std::string observed =
                obs::toJson(harness::runCold(cfg, traces, checked)).dump(2);

            EXPECT_EQ(chk.totalViolations(), 0u)
                << tpcd::queryName(q) << " prefetch " << cfg.prefetchData
                << ": "
                << (chk.violations().empty() ? ""
                                             : chk.violations()[0].detail);
            EXPECT_EQ(base, observed)
                << "checker perturbed stats of " << tpcd::queryName(q);
        }
    }
}

/** Randomized per-processor trace over private lines, shared lines and
 * four metalocks (contended). */
TraceStream
fuzzTrace(std::mt19937_64 &rng, ProcId p)
{
    TraceStream t;
    const Addr priv_base =
        AddressSpace::kPrivateBase + p * AddressSpace::kPrivateStride;
    const Addr shared_base = 0x1000'0000;
    const Addr lock_base = 0x2000'0000;
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<Addr> off(0, (4 << 10) - 8);
    std::uniform_int_distribution<Addr> lock_idx(0, 3);
    std::uniform_int_distribution<std::uint32_t> busy(1, 30);

    bool in_cs = false;
    Addr held = 0;
    for (std::size_t i = 0; i < 200; ++i) {
        const int r = pct(rng);
        if (!in_cs && r < 6) {
            held = lock_base + lock_idx(rng) * 64;
            t.record(TraceEntry::lockAcq(held, DataClass::LockSLock));
            in_cs = true;
        } else if (in_cs && r < 20) {
            t.record(TraceEntry::lockRel(held, DataClass::LockSLock));
            in_cs = false;
        } else if (r < 40) {
            t.record(TraceEntry::busy(busy(rng)));
        } else {
            const bool shared = pct(rng) < 40;
            const Addr a = shared ? shared_base + (off(rng) & ~7ull)
                                  : priv_base + (off(rng) & ~7ull);
            const DataClass cls =
                shared ? DataClass::Data : DataClass::Priv;
            if (pct(rng) < 30)
                t.record(TraceEntry::write(a, cls, 8));
            else
                t.record(TraceEntry::read(a, cls, 8));
        }
    }
    if (in_cs)
        t.record(TraceEntry::lockRel(held, DataClass::LockSLock));
    return t;
}

TEST(CheckerClean, FiftySeedFuzzZeroViolationsAndUnchangedStats)
{
    const MachineConfig cfg = MachineConfig::baseline();
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        // Contended traces (shared lines + locks): the checker must stay
        // silent even under heavy line ping-pong, and must not perturb
        // the stats.
        std::mt19937_64 rng(seed);
        std::vector<TraceStream> traces;
        std::vector<const TraceStream *> ptrs;
        for (ProcId p = 0; p < cfg.nprocs; ++p)
            traces.push_back(fuzzTrace(rng, p));
        for (const TraceStream &t : traces)
            ptrs.push_back(&t);

        const std::string base = obs::toJson(Machine(cfg).run(ptrs)).dump();
        Machine m(cfg);
        InvariantChecker chk;
        m.setChecker(&chk);
        const std::string observed = obs::toJson(m.run(ptrs)).dump();
        ASSERT_EQ(chk.totalViolations(), 0u)
            << "seed " << seed << ": " << chk.violations()[0].detail;
        EXPECT_EQ(base, observed) << "seed " << seed;
    }
}

TEST(CheckerClean, ModelCheckerTracesReplayCleanOnTheRealMachine)
{
    // Bridge regression from the exhaustive search (src/verify/): the
    // explicit-state checker exhausted 3 procs x 2 lines on both presets
    // with zero invariant violations, so no protocol counterexample
    // exists to pin here. What it *did* produce is the trace-emission
    // path: synthesized event sequences rendered as per-processor
    // TraceStreams. Replaying one — a cross-processor sharing pattern
    // with a lock hand-off, the shape every mutant counterexample takes
    // — through the full-size real machine must keep the checker silent
    // and touch the protocol states the path was built to reach.
    verify::ProtocolModel model(MachineConfig::baseline(), {});
    const std::vector<verify::Event> path = {
        {verify::EvKind::Load, 0, 0, 0},   // p0 shares line 0
        {verify::EvKind::Store, 1, 0, 0},  // p1 invalidates p0, owns it
        {verify::EvKind::Load, 0, 0, 0},   // p0 re-shares: 3-hop path
        {verify::EvKind::LockAcq, 1, 2, 0}, // p1's test&set ...
        {verify::EvKind::LockAcq, 1, 2, 0}, // ... and grab: p1 holds it
        {verify::EvKind::LockAcq, 0, 2, 0}, // p0 contends, spins
        {verify::EvKind::LockRel, 1, 2, 0}, // hand-off wakes p0
    };
    std::vector<TraceStream> streams = model.traces(path);
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &t : streams)
        ptrs.push_back(&t);

    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = model.config().nprocs;
    Machine m(cfg);
    InvariantChecker chk;
    m.setChecker(&chk);
    SimStats s = m.run(ptrs);
    EXPECT_EQ(chk.totalViolations(), 0u);
    // The path exercised real sharing: p1's store invalidated p0's copy,
    // and the contended acquire spun at least once.
    EXPECT_GT(s.procs[0].reads, 0u);
    EXPECT_GT(s.procs[1].writes, 0u);
    EXPECT_GT(s.procs[0].syncStall, 0u);
}

} // namespace
