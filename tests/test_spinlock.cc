/**
 * @file
 * Unit tests for the dynamic metalock table (test&test&set replay).
 */

#include <gtest/gtest.h>

#include "sim/error.hh"
#include "sim/spinlock_model.hh"

namespace {

using namespace dss::sim;

TEST(LockTable, AcquireFreeLockSucceeds)
{
    LockTable t;
    EXPECT_FALSE(t.isHeld(0x100));
    EXPECT_TRUE(t.tryAcquire(0x100, 0));
    EXPECT_TRUE(t.isHeld(0x100));
    EXPECT_EQ(t.holder(0x100), 0u);
}

TEST(LockTable, SecondAcquireFails)
{
    LockTable t;
    ASSERT_TRUE(t.tryAcquire(0x100, 0));
    EXPECT_FALSE(t.tryAcquire(0x100, 1));
    EXPECT_EQ(t.holder(0x100), 0u);
}

TEST(LockTable, DistinctWordsAreIndependent)
{
    LockTable t;
    EXPECT_TRUE(t.tryAcquire(0x100, 0));
    EXPECT_TRUE(t.tryAcquire(0x200, 1));
    EXPECT_EQ(t.holder(0x100), 0u);
    EXPECT_EQ(t.holder(0x200), 1u);
}

TEST(LockTable, ReleaseWithoutWaitersFrees)
{
    LockTable t;
    t.tryAcquire(0x100, 0);
    EXPECT_EQ(t.release(0x100, 0), LockTable::kNoWaiter);
    EXPECT_FALSE(t.isHeld(0x100));
}

TEST(LockTable, ReleaseHandsOffToFirstWaiterFifo)
{
    LockTable t;
    t.tryAcquire(0x100, 0);
    t.addWaiter(0x100, 1);
    t.addWaiter(0x100, 2);
    EXPECT_EQ(t.waiters(0x100), 2u);
    EXPECT_EQ(t.release(0x100, 0), 1u);
    EXPECT_TRUE(t.isHeld(0x100)); // handed off, still held
    EXPECT_EQ(t.holder(0x100), 1u);
    EXPECT_EQ(t.waiters(0x100), 1u);
    EXPECT_EQ(t.release(0x100, 1), 2u);
    EXPECT_EQ(t.release(0x100, 2), LockTable::kNoWaiter);
    EXPECT_FALSE(t.isHeld(0x100));
}

TEST(LockTable, ReleaseByNonHolderThrowsWithDump)
{
    // A release by anyone but the holder is a malformed trace: it must
    // stop the run with a dump, in every build, not free or hand off
    // another processor's lock.
    LockTable t;
    t.tryAcquire(0x100, 0);
    t.addWaiter(0x100, 2);
    try {
        t.release(0x100, 1);
        FAIL() << "release by a non-holder returned";
    } catch (const SimError &e) {
        const auto field = [&](const char *key) {
            const dss::obs::Json *v = e.dump().find(key);
            return v ? v->asUint() : ~0ull;
        };
        EXPECT_EQ(field("word"), 0x100u);
        EXPECT_EQ(field("holder"), 0u);
        EXPECT_EQ(field("releaser"), 1u);
    }
    EXPECT_EQ(t.holder(0x100), 0u); // untouched: still p0's, p2 waiting
    EXPECT_EQ(t.waiters(0x100), 1u);
    // A free lock has no holder to release it.
    EXPECT_THROW(t.release(0x200, 0), SimError);
}

TEST(LockTable, ResetDropsAllState)
{
    LockTable t;
    t.tryAcquire(0x100, 0);
    t.addWaiter(0x100, 1);
    t.reset();
    EXPECT_FALSE(t.isHeld(0x100));
    EXPECT_EQ(t.waiters(0x100), 0u);
    EXPECT_TRUE(t.tryAcquire(0x100, 2));
}

} // namespace
