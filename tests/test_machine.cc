/**
 * @file
 * Integration tests for the Machine: hand-built traces with known timing
 * and coherence outcomes (the paper's latency table, miss classification,
 * write-buffer stalls, metalock spinning, prefetch behaviour, warm runs),
 * and a simulated deadlock surfacing as a typed SimError.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/arena.hh"
#include "sim/error.hh"
#include "sim/machine.hh"

namespace {

using namespace dss::sim;

constexpr Cycles kL2HitStall = 15;   // 16 - 1 issue cycle
constexpr Cycles kLocalStall = 79;   // 80 - 1
constexpr Cycles kRemote2Stall = 248; // 249 - 1
constexpr Cycles kRemote3Stall = 350; // 351 - 1

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

TEST(Machine, ReadHitAfterMissCostsOneCycle)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x8, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.reads, 2u);
    EXPECT_EQ(p.l1Hits(), 1u);
    EXPECT_EQ(p.l1Misses().total(), 1u);
    // Address 0 lives in page 0 -> home node 0 -> local memory: 80 cycles.
    EXPECT_EQ(p.memStall, kLocalStall);
    EXPECT_EQ(p.busy, 2u);
}

TEST(Machine, L2HitAfterL1Conflict)
{
    Machine m(MachineConfig::baseline());
    // 0x0 and 0x1000 conflict in a 4 KB direct-mapped L1 but not in the
    // 128 KB 2-way L2.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x1000, DataClass::Data, 8),
        TraceEntry::read(0x0, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.l1Misses().total(), 3u);
    EXPECT_EQ(p.l2Misses().total(), 2u);
    EXPECT_EQ(p.l2Hits(), 1u);
    EXPECT_EQ(p.l1Misses().of(DataClass::Data, MissType::Conf), 1u);
    EXPECT_EQ(p.memStall, 2 * kLocalStall + kL2HitStall);
}

TEST(Machine, RemoteHomeIs2Hop)
{
    Machine m(MachineConfig::baseline());
    // Page 1 (addr 8192) is homed at node 1; requester is node 0.
    TraceStream t =
        streamOf({TraceEntry::read(8192, DataClass::Data, 8)});
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].memStall, kRemote2Stall);
}

TEST(Machine, DirtyThirdNodeIs3Hop)
{
    Machine m(MachineConfig::baseline());
    // Proc 1 dirties a line homed at node 2 (addr 16384); proc 0 then
    // reads it: requester 0 -> home 2 -> owner 1 -> requester 0.
    TraceStream writer = streamOf({
        TraceEntry::write(16384, DataClass::Data, 8),
    });
    TraceStream reader = streamOf({
        TraceEntry::busy(10000), // guarantee the write drains first
        TraceEntry::read(16384, DataClass::Data, 8),
    });
    SimStats s = m.run({&writer, &reader});
    EXPECT_EQ(s.procs[1].memStall, kRemote3Stall);
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cold), 1u);
}

TEST(Machine, WriteInvalidationMakesCoherenceMiss)
{
    Machine m(MachineConfig::baseline());
    // Proc 0 caches the line, proc 1 writes it, proc 0 re-reads: the
    // re-read must be classified as a coherence miss.
    TraceStream p0 = streamOf({
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::busy(20000),
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    TraceStream p1 = streamOf({
        TraceEntry::busy(5000), // after p0's first read
        TraceEntry::write(0x40, DataClass::Data, 8),
    });
    SimStats s = m.run({&p0, &p1});
    EXPECT_EQ(s.procs[0].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    EXPECT_EQ(s.procs[0].l1Misses().of(DataClass::Data, MissType::Cohe), 1u);
}

TEST(Machine, WriteBufferOverflowStalls)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.writeBufferEntries = 2;
    Machine m(cfg);
    TraceStream t;
    // Remote-home lines (page 1): drains are slow, buffer fills fast.
    for (int i = 0; i < 8; ++i)
        t.record(TraceEntry::write(8192 + i * 64, DataClass::Priv, 8));
    SimStats s = m.run({&t});
    EXPECT_GT(s.procs[0].wbOverflows, 0u);
    EXPECT_GT(s.procs[0].memStall, 0u);
    EXPECT_GT(s.procs[0].pmem(), 0u); // stalls attributed to Priv
}

TEST(Machine, LoadsForwardFromWriteBuffer)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::write(8192, DataClass::Data, 8),
        TraceEntry::read(8192, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    // The read is satisfied by the buffered store: no read stall.
    EXPECT_EQ(s.procs[0].l1Hits(), 1u);
    EXPECT_EQ(s.procs[0].memStall, 0u);
}

TEST(Machine, UncontendedLockHasNoSyncStall)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(10),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].syncStall, 0u);
    // The test&set itself is memory time on metadata.
    EXPECT_GT(s.procs[0].memStall, 0u);
    EXPECT_GT(s.procs[0].memStallByGroup[static_cast<int>(
                  ClassGroup::Metadata)],
              0u);
}

TEST(Machine, ContendedLockChargesSpinToMSync)
{
    Machine m(MachineConfig::baseline());
    TraceStream holder = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(50000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    TraceStream waiter = streamOf({
        TraceEntry::busy(1000), // arrive while the lock is held
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&holder, &waiter});
    EXPECT_EQ(s.procs[0].syncStall, 0u);
    EXPECT_GT(s.procs[1].syncStall, 40000u); // waited out the hold
}

TEST(Machine, FifoHandOffOrdersWaiters)
{
    Machine m(MachineConfig::baseline());
    TraceStream holder = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(30000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
        TraceEntry::busy(1),
    });
    TraceStream w1 = streamOf({
        TraceEntry::busy(1000),
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(10000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    TraceStream w2 = streamOf({
        TraceEntry::busy(2000), // queues behind w1
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&holder, &w1, &w2});
    // w2 waited for holder AND w1's hold.
    EXPECT_GT(s.procs[2].syncStall, s.procs[1].syncStall);
}

TEST(Machine, WokenWaiterStepsBeforeItsHigherIdReleaser)
{
    // A release wakes p0 at the releaser's own clock. Both then miss to
    // the same home controller (lock word W and line Y share page 1,
    // homed at node 1): p0 re-executes its test&set, p1 reads Y. At equal
    // clocks the lower id steps first, so p0 finds the controller free
    // and p1 queues behind it.
    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = 2;
    Machine m(cfg);
    const Addr w = 8192, y = 8192 + 0x100;
    TraceStream p0 = streamOf({
        TraceEntry::busy(2000), // arrive while p1 holds W
        TraceEntry::lockAcq(w, DataClass::LockSLock),
        TraceEntry::lockRel(w, DataClass::LockSLock),
    });
    TraceStream p1 = streamOf({
        TraceEntry::lockAcq(w, DataClass::LockSLock), // local cold miss
        TraceEntry::busy(5000),
        TraceEntry::lockRel(w, DataClass::LockSLock), // owned store
        TraceEntry::read(y, DataClass::Data, 8),
    });
    SimStats s = m.run({&p0, &p1});
    const Cycles occupancy = cfg.lat.controllerOccupancy;
    // p1 releases at 80 (test&set) + 5000 (busy) + 1 (store issue).
    const Cycles release = kLocalStall + 1 + 5000 + 1;
    EXPECT_EQ(s.procs[0].syncStall, release - 2000);
    // p0's test&set fetches W from its dirty owner p1, the home.
    EXPECT_EQ(s.procs[0].memStall, kRemote2Stall);
    EXPECT_EQ(s.procs[1].syncStall, 0u);
    EXPECT_EQ(s.procs[1].memStall, kLocalStall + kLocalStall + occupancy);
}

TEST(Machine, WokenWaiterStepsOnceItsLowerIdReleaserPassesIt)
{
    // A release wakes p1 at the releaser p0's own clock, far below p2,
    // which was the runner-up when p0 started stepping. p0 steps first
    // (lower id) and reads Y; once its clock passes p1's, p1 re-executes
    // its test&set and queues behind Y at the shared home controller
    // (W, Y and Z share page 1, homed at node 1). p0's read of Z comes
    // after, at a free controller.
    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = 3;
    Machine m(cfg);
    const Addr w = 8192, y = 8192 + 0x100, z = 8192 + 0x200;
    TraceStream p0 = streamOf({
        TraceEntry::lockAcq(w, DataClass::LockSLock), // remote cold miss
        TraceEntry::busy(5000),
        TraceEntry::lockRel(w, DataClass::LockSLock), // owned store
        TraceEntry::read(y, DataClass::Data, 8),
        TraceEntry::read(z, DataClass::Data, 8),
    });
    TraceStream p1 = streamOf({
        TraceEntry::busy(2000), // arrive while p0 holds W
        TraceEntry::lockAcq(w, DataClass::LockSLock),
    });
    TraceStream p2 = streamOf({TraceEntry::busy(20000)});
    SimStats s = m.run({&p0, &p1, &p2});
    const Cycles occupancy = cfg.lat.controllerOccupancy;
    // p0 releases at 249 (test&set) + 5000 (busy) + 1 (store issue).
    const Cycles release = kRemote2Stall + 1 + 5000 + 1;
    EXPECT_EQ(s.procs[0].syncStall, 0u);
    EXPECT_EQ(s.procs[0].memStall, 3 * kRemote2Stall);
    EXPECT_EQ(s.procs[1].syncStall, release - 2000);
    // p1's test&set fetches W from its dirty owner p0 through the home,
    // p1 itself.
    EXPECT_EQ(s.procs[1].memStall, kRemote2Stall + occupancy);
    EXPECT_EQ(s.procs[2].memStall + s.procs[2].syncStall, 0u);
}

TEST(Machine, BusyEntriesAccrueAssumedHits)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({TraceEntry::busy(100)});
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].busy, 100u);
    EXPECT_EQ(s.procs[0].assumedHitReads, 25u);
}

TEST(Machine, PrefetchFetchesAheadOnDataMisses)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 4;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::busy(2000),
        TraceEntry::read(0x20, DataClass::Data, 8), // prefetched line
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].prefetchesIssued, 4u);
    EXPECT_EQ(s.procs[0].prefetchesUseful, 1u);
    EXPECT_EQ(s.procs[0].l1Misses().total(), 1u); // second read hit
}

TEST(Machine, PrefetchIgnoresNonDataClasses)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Priv, 8),
        TraceEntry::read(0x100, DataClass::Index, 8),
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].prefetchesIssued, 0u);
}

TEST(Machine, PrefetchInFlightDelaysEarlyDemand)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 4;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        // 0x40 is in the *next* L2 line: its prefetch goes to memory and
        // is still in flight when the demand arrives right behind it.
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    // The second read hits a prefetched-but-in-flight line: partial stall,
    // smaller than a full miss.
    EXPECT_EQ(s.procs[0].l1Misses().total(), 1u);
    EXPECT_GT(s.procs[0].memStall, kLocalStall);
    EXPECT_LT(s.procs[0].memStall, 2 * kLocalStall);
}

TEST(Machine, PrefetchSkipsDirtyRemoteLines)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 2;
    Machine m(cfg);
    TraceStream p0 = streamOf({
        TraceEntry::busy(10000),
        TraceEntry::read(0x0, DataClass::Data, 8), // prefetch 0x20, 0x40
    });
    TraceStream p1 = streamOf({
        TraceEntry::write(0x40, DataClass::Data, 8), // dirty remote line
    });
    SimStats s = m.run({&p0, &p1});
    (void)s;
    EXPECT_TRUE(m.l1(0).contains(0x20));
    EXPECT_FALSE(m.l1(0).contains(0x40)); // skipped: dirty at proc 1
}

TEST(Machine, WarmRunReusesCaches)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (Addr a = 0; a < 16 * 1024; a += 64)
        t.record(TraceEntry::read(a, DataClass::Data, 8));
    SimStats cold = m.run({&t});
    SimStats warm = m.run({&t});
    EXPECT_GT(cold.procs[0].l2Misses().total(),
              warm.procs[0].l2Misses().total());
    // Cold data fits the 128 KB L2 entirely: the warm run has no L2
    // misses at all.
    EXPECT_EQ(warm.procs[0].l2Misses().total(), 0u);

    m.resetMemoryState();
    SimStats cold2 = m.run({&t});
    EXPECT_EQ(cold2.procs[0].l2Misses().total(),
              cold.procs[0].l2Misses().total());
}

TEST(Machine, StatsAreFreshEachRun)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({TraceEntry::read(0x0, DataClass::Data, 8)});
    m.run({&t});
    SimStats second = m.run({&t});
    EXPECT_EQ(second.procs[0].reads, 1u);
}

TEST(Machine, ReadsEqualHitsPlusMisses)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (int i = 0; i < 500; ++i)
        t.record(TraceEntry::read((i * 7919) % 32768, DataClass::Data, 8));
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.reads, p.l1Hits() + p.l1Misses().total());
    EXPECT_EQ(p.l2Accesses(), p.l2Hits() + p.l2Misses().total());
}

TEST(Machine, InclusionHoldsAfterMixedTraffic)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (int i = 0; i < 4000; ++i) {
        Addr a = (static_cast<Addr>(i) * 2654435761u) % (1 << 20);
        if (i % 3 == 0)
            t.record(TraceEntry::write(a, DataClass::Priv, 8));
        else
            t.record(TraceEntry::read(a, DataClass::Data, 8));
    }
    SimStats s = m.run({&t});
    (void)s;
    for (Addr l1_line : m.l1(0).residentLines()) {
        EXPECT_TRUE(m.l2(0).contains(l1_line))
            << "L1 line 0x" << std::hex << l1_line << " not in L2";
    }
}

TEST(Machine, RejectsTooManyTraces)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = 2;
    Machine m(cfg);
    TraceStream a, b, c;
    EXPECT_THROW(m.run({&a, &b, &c}), std::invalid_argument);
}

TEST(Machine, RejectsMismatchedLineSizes)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.l1().lineBytes = 128; // larger than L2's 64: violates nesting
    EXPECT_THROW(Machine m(cfg), SimError);
}

TEST(Machine, AcceptsEqualLineSizes)
{
    // Equal lines satisfy strict inclusion (the `modern` preset relies
    // on this); only a *larger* upper-level line is rejected.
    MachineConfig cfg = MachineConfig::baseline();
    cfg.l1().lineBytes = 64;
    EXPECT_NO_THROW(Machine m(cfg));
}

TEST(MachineConfig, WithLineSizeKeepsHalfRatio)
{
    MachineConfig cfg = MachineConfig::baseline().withLineSize(256);
    EXPECT_EQ(cfg.l2().lineBytes, 256u);
    EXPECT_EQ(cfg.l1().lineBytes, 128u);
}

TEST(MachineConfig, WithCacheSizesKeepsLines)
{
    MachineConfig cfg =
        MachineConfig::baseline().withCacheSizes(1 << 20, 32 << 20);
    EXPECT_EQ(cfg.l1().sizeBytes, 1u << 20);
    EXPECT_EQ(cfg.l2().sizeBytes, 32u << 20);
    EXPECT_EQ(cfg.l1().lineBytes, 32u);
    EXPECT_EQ(cfg.l2().lineBytes, 64u);
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
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &t : traces)
        ptrs.push_back(&t);

    Machine m(cfg);
    try {
        m.run(ptrs);
        FAIL() << "deadlocked run returned normally";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        dss::obs::Json dump = e.dump(); // operator[] is non-const
        ASSERT_FALSE(dump["procs"].isNull());
        EXPECT_EQ(dump["procs"].size(), cfg.nprocs);
        ASSERT_FALSE(dump["locks"].isNull());
    }
}

/** Property sweep: a pure streaming read trace sees exactly one cold miss
 * per distinct L2 line, at every line size. */
class MachineLineSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MachineLineSweep, ColdMissesEqualDistinctLines)
{
    const std::size_t line = GetParam();
    Machine m(MachineConfig::baseline().withLineSize(line));
    TraceStream t;
    const Addr span = 64 * 1024; // streams through, no reuse
    for (Addr a = 0; a < span; a += 8)
        t.record(TraceEntry::read(a, DataClass::Data, 8));
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].l2Misses().byGroupAndType(ClassGroup::Data,
                                                 MissType::Cold),
              span / line);
}

INSTANTIATE_TEST_SUITE_P(Lines, MachineLineSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

} // namespace
