/**
 * @file
 * Unit tests for the directory: the default home-node assignment it is
 * handed (the interleave placement policy), transaction latency (the
 * paper's 80/249/351 cycle round trips), transfer-time adjustment, and
 * memory-controller contention.
 */

#include <memory>

#include <gtest/gtest.h>

#include "sim/arena.hh"
#include "sim/directory.hh"
#include "sim/placement.hh"

namespace {

using namespace dss::sim;

Directory
makeDir(std::size_t line = 64)
{
    return Directory(4, line, LatencyConfig{});
}

/** The machine's default home rule for a 4-node baseline. */
std::unique_ptr<PlacementPolicy>
interleave()
{
    return PlacementPolicy::interleave({4, 8192});
}

TEST(Directory, SharedPagesInterleaveRoundRobin)
{
    auto homes = interleave();
    ProcId h0 = homes->homeOf(0);
    ProcId h1 = homes->homeOf(8192);
    ProcId h2 = homes->homeOf(2 * 8192);
    ProcId h4 = homes->homeOf(4 * 8192);
    EXPECT_NE(h0, h1);
    EXPECT_NE(h1, h2);
    EXPECT_EQ(h0, h4); // wraps around with 4 nodes
    // Addresses within one page share a home.
    EXPECT_EQ(homes->homeOf(100), homes->homeOf(8191));
}

TEST(Directory, PrivatePagesHomeAtOwner)
{
    auto homes = interleave();
    for (ProcId p = 0; p < 4; ++p) {
        Addr a = AddressSpace::kPrivateBase +
                 p * AddressSpace::kPrivateStride + 0x1234;
        EXPECT_EQ(homes->homeOf(a), p);
    }
}

TEST(Directory, EntriesDefaultToUncached)
{
    Directory dir = makeDir();
    Directory::Entry &e = dir.entry(0x4040);
    EXPECT_EQ(e.state, Directory::State::Uncached);
    EXPECT_EQ(e.sharers, 0);
}

TEST(Directory, EntryIsPerLine)
{
    Directory dir = makeDir();
    dir.entry(0x40).sharers = 3;
    EXPECT_EQ(dir.entry(0x7f).sharers, 3); // same 64 B line
    EXPECT_EQ(dir.entry(0x80).sharers, 0); // next line
}

TEST(Directory, LocalCleanCosts80)
{
    Directory dir = makeDir();
    EXPECT_EQ(dir.transactionLatency(0, 0, 0, false), 80u);
}

TEST(Directory, RemoteClean2HopCosts249)
{
    Directory dir = makeDir();
    EXPECT_EQ(dir.transactionLatency(0, 1, 0, false), 249u);
}

TEST(Directory, DirtyThirdNode3HopCosts351)
{
    Directory dir = makeDir();
    // Requester 0, home 1, dirty owner 2: three crossings.
    EXPECT_EQ(dir.transactionLatency(0, 1, 2, true), 351u);
}

TEST(Directory, DirtyAtHomeIs2Hop)
{
    Directory dir = makeDir();
    // Requester 0, home 1 which also owns the dirty copy: two crossings.
    EXPECT_EQ(dir.transactionLatency(0, 1, 1, true), 249u);
}

TEST(Directory, LocalHomeDirtyRemoteIs2Hop)
{
    Directory dir = makeDir();
    // Requester 0 = home, dirty owner 2: home->owner, owner->requester.
    EXPECT_EQ(dir.transactionLatency(0, 0, 2, true), 249u);
}

TEST(Directory, DirtyOwnedBySelfIsLocalCost)
{
    Directory dir = makeDir();
    EXPECT_EQ(dir.transactionLatency(0, 0, 0, true), 80u);
}

TEST(Directory, LongerLinesPayTransferTime)
{
    Directory d64 = makeDir(64);
    Directory d256 = makeDir(256);
    Cycles base = d64.transactionLatency(0, 1, 0, false);
    Cycles big = d256.transactionLatency(0, 1, 0, false);
    EXPECT_EQ(big, base + (256 - 64) / 2);
}

TEST(Directory, ShorterLinesAreNotFaster)
{
    Directory d64 = makeDir(64);
    Directory d16 = makeDir(16);
    EXPECT_EQ(d16.transactionLatency(0, 0, 0, false),
              d64.transactionLatency(0, 0, 0, false));
}

TEST(Directory, ControllerSerializesRequests)
{
    Directory dir = makeDir();
    EXPECT_EQ(dir.acquireController(0, 100), 0u);
    // Second request at the same time queues behind the first.
    Cycles delay = dir.acquireController(0, 100);
    EXPECT_EQ(delay, LatencyConfig{}.controllerOccupancy);
    // A different node's controller is free.
    EXPECT_EQ(dir.acquireController(1, 100), 0u);
}

TEST(Directory, ControllerFreesAfterOccupancy)
{
    Directory dir = makeDir();
    dir.acquireController(0, 0);
    EXPECT_EQ(dir.acquireController(0, 1000), 0u);
}

TEST(Directory, ResetClearsEntriesAndControllers)
{
    Directory dir = makeDir();
    dir.entry(0x40).sharers = 7;
    dir.acquireController(0, 0);
    dir.reset();
    EXPECT_EQ(dir.entry(0x40).sharers, 0);
    EXPECT_EQ(dir.trackedLines(), 1u); // recreated by the probe above
    EXPECT_EQ(dir.acquireController(0, 0), 0u);
}

TEST(Directory, ResetControllersKeepsSharingState)
{
    Directory dir = makeDir();
    dir.entry(0x40).sharers = 7;
    dir.acquireController(0, 0);
    dir.resetControllers();
    EXPECT_EQ(dir.entry(0x40).sharers, 7);
    EXPECT_EQ(dir.acquireController(0, 0), 0u);
}

} // namespace
