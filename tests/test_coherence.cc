/**
 * @file
 * Coherence-protocol edge cases in the Machine: ownership upgrades,
 * dirty-remote fetches, downgrades on remote reads, dirty writebacks on
 * eviction, and the directory state transitions behind them.
 */

#include <gtest/gtest.h>

#include "sim/arena.hh"
#include "sim/machine.hh"

namespace {

using namespace dss::sim;

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

TEST(Coherence, WriteUpgradeInvalidatesSharers)
{
    Machine m(MachineConfig::baseline());
    // Both procs read the line (Shared in both); proc 0 then writes.
    TraceStream p0 = streamOf({
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::busy(10000),
        TraceEntry::write(0x40, DataClass::Data, 8),
        TraceEntry::busy(20000),
    });
    TraceStream p1 = streamOf({
        TraceEntry::busy(5000),
        TraceEntry::read(0x40, DataClass::Data, 8), // shares the line
        TraceEntry::busy(25000),
        TraceEntry::read(0x40, DataClass::Data, 8), // after the upgrade
    });
    SimStats s = m.run({&p0, &p1});
    // Proc 1's second read is a coherence miss caused by the upgrade.
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    // That read also downgraded proc 0's dirty copy: both now share it
    // clean.
    EXPECT_TRUE(m.l2(0).contains(0x40));
    EXPECT_FALSE(m.l2(0).isDirty(0x40));
    EXPECT_TRUE(m.l2(1).contains(0x40));
}

TEST(Coherence, RemoteReadDowngradesDirtyOwner)
{
    Machine m(MachineConfig::baseline());
    TraceStream writer = streamOf({
        TraceEntry::write(0x40, DataClass::Data, 8),
        TraceEntry::busy(30000),
        // Write again after the downgrade: must re-upgrade, not L2-hit.
        TraceEntry::write(0x40, DataClass::Data, 8),
    });
    TraceStream reader = streamOf({
        TraceEntry::busy(10000),
        TraceEntry::read(0x40, DataClass::Data, 8), // forces the downgrade
        TraceEntry::busy(30000),
        TraceEntry::read(0x40, DataClass::Data, 8), // invalidated again
    });
    SimStats s = m.run({&writer, &reader});
    // The reader's second read misses because of the re-upgrade.
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    // ... and downgrades the writer again: final state is shared-clean in
    // both caches.
    EXPECT_TRUE(m.l2(0).contains(0x40));
    EXPECT_FALSE(m.l2(0).isDirty(0x40));
    EXPECT_TRUE(m.l2(1).contains(0x40));
}

TEST(Coherence, WriteMissFetchesFromDirtyRemote)
{
    Machine m(MachineConfig::baseline());
    TraceStream first = streamOf({
        TraceEntry::write(0x40, DataClass::Data, 8),
    });
    TraceStream second = streamOf({
        TraceEntry::busy(10000),
        TraceEntry::write(0x40, DataClass::Data, 8), // steals ownership
    });
    SimStats s = m.run({&first, &second});
    (void)s;
    EXPECT_FALSE(m.l2(0).contains(0x40)); // invalidated out of proc 0
    EXPECT_TRUE(m.l2(1).isDirty(0x40));
}

TEST(Coherence, DirtyEvictionWritesBackAndForgetsOwnership)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = 2;
    Machine m(cfg);
    // Dirty a line, then stream enough conflicting lines through the same
    // L2 set to evict it (128K 2-way, 64 B lines -> set stride 64 KiB).
    TraceStream t;
    t.record(TraceEntry::write(0x0, DataClass::Data, 8));
    t.record(TraceEntry::busy(100000)); // drain the write buffer
    for (int i = 1; i <= 2; ++i)
        t.record(TraceEntry::read(static_cast<Addr>(i) * 64 * 1024,
                                  DataClass::Data, 8));
    TraceStream other = streamOf({
        TraceEntry::busy(500000),
        // If the writeback lost data/ownership tracking, this read would
        // try a dirty-remote fetch from a cache that no longer has it.
        TraceEntry::read(0x0, DataClass::Data, 8),
    });
    SimStats s = m.run({&t, &other});
    EXPECT_FALSE(m.l2(0).contains(0x0));
    // The late reader gets it from memory as a cold miss at 2-hop cost at
    // most — and the run completes without tripping any asserts.
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cold), 1u);
}

TEST(Coherence, RmwOnOwnDirtyLineIsLocal)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::write(0x400, DataClass::LockSLock, 8),
        TraceEntry::busy(10000),
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&t});
    // The RMW finds the word exclusively owned: it completes at the L2
    // (16 cycles -> 15 stall), not via the directory.
    EXPECT_EQ(s.procs[0].memStall, 15u);
}

TEST(Coherence, ThreeWaySharingInvalidatesAllCopies)
{
    Machine m(MachineConfig::baseline());
    TraceStream r1 = streamOf({
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::busy(50000),
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    TraceStream r2 = streamOf({
        TraceEntry::busy(1000),
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::busy(50000),
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    TraceStream w = streamOf({
        TraceEntry::busy(10000),
        TraceEntry::write(0x40, DataClass::Data, 8),
    });
    SimStats s = m.run({&r1, &r2, &w});
    EXPECT_EQ(s.procs[0].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
}

TEST(Coherence, StoreThatTakesOwnershipRepaysUpperLevelMarks)
{
    Machine m(MachineConfig::baseline());
    // Line 0x40 has two L1 sublines, A = 0x40 and B = 0x60. p0 caches
    // both; p1's store invalidates them, marking each Cohe.
    const Addr a = 0x40, b = 0x60;
    TraceStream p0 = streamOf({
        TraceEntry::read(a, DataClass::Data, 8),
        TraceEntry::read(b, DataClass::Data, 8),
        TraceEntry::busy(10000),
        TraceEntry::read(a, DataClass::Data, 8),  // Cohe at L1 and L2
        TraceEntry::write(a, DataClass::Data, 8), // upgrade: repays B
        TraceEntry::write(a, DataClass::Data, 8), // owned store
        TraceEntry::read(b, DataClass::Data, 8),  // Conf at L1
    });
    TraceStream p1 = streamOf({
        TraceEntry::busy(5000),
        TraceEntry::write(a, DataClass::Data, 8),
    });
    SimStats s = m.run({&p0, &p1});
    const ProcStats &st = s.procs[0];
    EXPECT_EQ(st.l1Misses().of(DataClass::Data, MissType::Cold), 2u);
    EXPECT_EQ(st.l1Misses().of(DataClass::Data, MissType::Cohe), 1u);
    EXPECT_EQ(st.l1Misses().of(DataClass::Data, MissType::Conf), 1u);
    EXPECT_EQ(st.l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    const Directory::Entry *e = m.directory().peek(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, Directory::State::Dirty);
    EXPECT_EQ(e->owner, 0u);
}

TEST(Coherence, PrivateDataNeverPingPongs)
{
    Machine m(MachineConfig::baseline());
    // Two procs hammer their own private addresses: no coherence misses.
    auto priv = [](ProcId p, int i) {
        return AddressSpace::kPrivateBase +
               p * AddressSpace::kPrivateStride +
               static_cast<Addr>(i) * 64;
    };
    TraceStream p0, p1;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i) {
            p0.record(TraceEntry::write(priv(0, i), DataClass::Priv, 8));
            p0.record(TraceEntry::read(priv(0, i), DataClass::Priv, 8));
            p1.record(TraceEntry::write(priv(1, i), DataClass::Priv, 8));
            p1.record(TraceEntry::read(priv(1, i), DataClass::Priv, 8));
        }
    }
    SimStats s = m.run({&p0, &p1});
    for (const ProcStats &ps : s.procs) {
        for (std::size_t c = 0; c < kNumDataClasses; ++c) {
            EXPECT_EQ(ps.l2Misses().of(static_cast<DataClass>(c),
                                     MissType::Cohe),
                      0u);
        }
    }
}

TEST(Coherence, PrivateHomeIsAlwaysLocal)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::read(AddressSpace::kPrivateBase + 0x40,
                         DataClass::Priv, 8),
    });
    SimStats s = m.run({&t});
    // Local memory: 80-cycle round trip, 79 stall.
    EXPECT_EQ(s.procs[0].memStall, 79u);
}

} // namespace
