/**
 * @file
 * Graceful-failure layer tests (harness/guard.hh): exponential backoff
 * arithmetic, the bounded QueryAbort retry loop, the retry counters'
 * registry names, and guardedMain's catch-and-report contract
 * (structured error JSON on stderr, exit code kErrorExitCode, never a
 * crash).
 */

#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "harness/guard.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "sim/error.hh"

namespace {

using namespace dss;
using harness::RetryPolicy;

TEST(Backoff, DoublesFromBaseAndCaps)
{
    RetryPolicy policy; // base 64, cap 4096
    EXPECT_EQ(harness::backoffFor(policy, 0), 64u);
    EXPECT_EQ(harness::backoffFor(policy, 1), 128u);
    EXPECT_EQ(harness::backoffFor(policy, 2), 256u);
    EXPECT_EQ(harness::backoffFor(policy, 6), 4096u);
    EXPECT_EQ(harness::backoffFor(policy, 20), 4096u);
}

TEST(RetryOnAbort, SucceedsAfterTransientAborts)
{
    unsigned calls = 0;
    std::ostringstream log;
    const int result = harness::retryOnAbort(
        RetryPolicy{},
        [&]() -> int {
            if (++calls < 3)
                throw db::QueryAbort(db::QueryAbort::Reason::WriteConflict,
                                     1, 7, "transient");
            return 42;
        },
        nullptr, &log);
    EXPECT_EQ(result, 42);
    EXPECT_EQ(calls, 3u);
    // Both retries were noted, with doubling backoff.
    EXPECT_NE(log.str().find("retry 1 after 64"), std::string::npos);
    EXPECT_NE(log.str().find("retry 2 after 128"), std::string::npos);
}

TEST(RetryOnAbort, PersistentConflictEventuallyPropagates)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    unsigned calls = 0;
    EXPECT_THROW(harness::retryOnAbort(policy,
                                       [&]() -> int {
                                           ++calls;
                                           throw db::QueryAbort(
                                               db::QueryAbort::Reason::
                                                   ReadWriteConflict,
                                               1, 7, "persistent");
                                       }),
                 db::QueryAbort);
    EXPECT_EQ(calls, 3u);
}

TEST(RetryOnAbort, NonAbortExceptionsPassStraightThrough)
{
    unsigned calls = 0;
    EXPECT_THROW(harness::retryOnAbort(RetryPolicy{},
                                       [&]() -> int {
                                           ++calls;
                                           throw std::runtime_error("boom");
                                       }),
                 std::runtime_error);
    EXPECT_EQ(calls, 1u); // no retry for non-abort failures
}

TEST(RetryStats, RegisterUnderHarnessPrefix)
{
    harness::RetryStats stats;
    stats.attempts = 4;
    stats.aborts = 5;
    obs::Registry reg;
    stats.registerStats(reg);
    EXPECT_EQ(reg.counterValue("harness.retry.attempts"), 4u);
    EXPECT_EQ(reg.counterValue("harness.retry.aborts"), 5u);
}

TEST(GuardedMain, PassesThroughTheBodysExitCode)
{
    EXPECT_EQ(harness::guardedMain("t", 0, nullptr,
                                   [](int, char **) { return 0; }),
              0);
    EXPECT_EQ(harness::guardedMain("t", 0, nullptr,
                                   [](int, char **) { return 1; }),
              1);
}

TEST(GuardedMain, SimErrorReportsAndExitsThree)
{
    const int rc =
        harness::guardedMain("t", 0, nullptr, [](int, char **) -> int {
            obs::Json dump = obs::Json::object();
            dump["proc"] = 2;
            throw sim::SimError("simulated deadlock", std::move(dump));
        });
    EXPECT_EQ(rc, harness::kErrorExitCode);
}

TEST(GuardedMain, QueryAbortReportsAndExitsThree)
{
    const int rc =
        harness::guardedMain("t", 0, nullptr, [](int, char **) -> int {
            throw db::QueryAbort(db::QueryAbort::Reason::Injected, 3, 9,
                                 "injected fault: query abort");
        });
    EXPECT_EQ(rc, harness::kErrorExitCode);
}

TEST(GuardedMain, GenericExceptionReportsAndExitsThree)
{
    const int rc = harness::guardedMain(
        "t", 0, nullptr,
        [](int, char **) -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(rc, harness::kErrorExitCode);
}

} // namespace
