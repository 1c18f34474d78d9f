/**
 * @file
 * Graceful-failure layer tests (harness/guard.hh): guardedMain's
 * catch-and-report contract (structured error JSON on stderr, exit code
 * kErrorExitCode, never a crash).
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "db/common.hh"
#include "harness/guard.hh"
#include "obs/json.hh"
#include "sim/error.hh"

namespace {

using namespace dss;

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
            throw db::QueryAbort(db::QueryAbort::Reason::WriteConflict, 3,
                                 9, "write/write conflict");
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
