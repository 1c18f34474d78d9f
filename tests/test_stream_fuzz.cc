/**
 * @file
 * Stream fuzz layer: 50 seeded random stream configurations (query
 * mixes, arrival disciplines, client populations, dispatch policies),
 * each replayed twice:
 *
 *  1. checker differential — the stream report (per-instance SimStats
 *     included) is bit-identical with and without the coherence
 *     invariant checker attached, so the checker observes without
 *     perturbing;
 *  2. invariant cleanliness — the checked replay reports zero
 *     violations, and every instance completes exactly once.
 *
 * One tiny workload and one trace cache are shared across all seeds
 * (captures are pure; test_sched.cc asserts that), which keeps the 50
 * iterations affordable: most instances re-use cached captures.
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "sched/scheduler.hh"
#include "sim/check.hh"

namespace {

using namespace dss;

class StreamFuzz : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        wl_ = new harness::Workload(tpcd::ScaleConfig::tiny(), 4);
        cache_ = new sched::TraceCache;
    }

    static void TearDownTestSuite()
    {
        delete cache_;
        cache_ = nullptr;
        delete wl_;
        wl_ = nullptr;
    }

    static harness::Workload *wl_;
    static sched::TraceCache *cache_;
};

harness::Workload *StreamFuzz::wl_ = nullptr;
sched::TraceCache *StreamFuzz::cache_ = nullptr;

/** A random-but-deterministic stream configuration for one fuzz seed. */
sched::StreamConfig
fuzzConfig(std::uint64_t seed)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto draw = [&state] { return sched::splitmix64(state); };

    sched::StreamConfig cfg;
    cfg.seed = seed;
    cfg.instances = 3 + draw() % 4; // 3..6
    cfg.policy = (draw() & 1) ? sched::Policy::Fifo
                              : sched::Policy::ShortestClass;
    cfg.paramVariants = 1 + draw() % 3;
    if (draw() & 1) {
        cfg.mode = sched::ArrivalMode::Closed;
        cfg.clients = 1 + draw() % 5;
    } else {
        cfg.mode = sched::ArrivalMode::Open;
        cfg.meanInterarrival = 100000 + draw() % 900000;
    }
    // Random non-empty submix of the three traced queries, with random
    // weights.
    cfg.mix.clear();
    const tpcd::QueryId pool[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                  tpcd::QueryId::Q12};
    unsigned members = draw() % 8;
    for (unsigned i = 0; i < 3; ++i)
        if (members & (1u << i))
            cfg.mix.push_back({pool[i], 1 + unsigned(draw() % 3)});
    if (cfg.mix.empty())
        cfg.mix.push_back({pool[draw() % 3], 1});
    return cfg;
}

TEST_F(StreamFuzz, FiftySeedsDifferentialAndChecked)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        const sched::StreamConfig cfg = fuzzConfig(seed);

        sched::StreamScheduler plain_sched(*wl_,
                                           sim::MachineConfig::baseline(),
                                           cfg, harness::RunOptions{},
                                           cache_);
        obs::Json plain_json = toJson(plain_sched.run(), true);

        sim::InvariantChecker checker;
        harness::RunOptions checked_opts;
        checked_opts.checker = &checker;
        sched::StreamScheduler checked_sched(
            *wl_, sim::MachineConfig::baseline(), cfg, checked_opts, cache_);
        const sched::StreamResult checked = checked_sched.run();
        obs::Json checked_json = toJson(checked, true);

        // The shared cache's hit/miss accounting differs between the two
        // replays by design; every simulated number must not.
        ASSERT_EQ(plain_json["records"].dump(),
                  checked_json["records"].dump())
            << "the checker perturbed the stream";
        ASSERT_EQ(plain_json["summary"].dump(),
                  checked_json["summary"].dump());
        ASSERT_EQ(checker.totalViolations(), 0u)
            << "invariant violations in the checked replay";
        ASSERT_EQ(checked.records.size(), cfg.instances);
    }
}

} // namespace
