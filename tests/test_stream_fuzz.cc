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
 *
 * The second fifty-seed pass turns the resilience layer on — random
 * deadlines, queue bounds, shed policies, breaker thresholds and a
 * NodeFailure-only fault plan per seed — and tightens the differential
 * property to the FULL report document: with one cache per replay both
 * see identical fetch sequences, so even the cache and fired-outage
 * accounting must serialize byte-identically. Every instance must
 * resolve exactly once as goodput, timeout, shed or abandoned.
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "sched/resilience.hh"
#include "sched/scheduler.hh"
#include "sim/check.hh"
#include "sim/fault.hh"

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

/** A random-but-deterministic resilience layer for one fuzz seed. */
sched::ResilienceConfig
fuzzResilience(std::uint64_t seed)
{
    std::uint64_t state = seed * 0xBF58476D1CE4E5B9ull + 3;
    auto draw = [&state] { return sched::splitmix64(state); };

    sched::ResilienceConfig res;
    res.nodeFailures = true;
    // Sometimes binding, sometimes generous, sometimes absent.
    switch (draw() % 3) {
      case 0: res.deadline = 1500000 + draw() % 1500000; break;
      case 1: res.deadline = 8000000; break;
      default: res.deadline = 0; break;
    }
    if (draw() & 1)
        res.queueCapacity = unsigned(draw() % 4); // 0..3, 0 included
    switch (draw() % 3) {
      case 0: res.shed = sched::ShedPolicy::RejectNewest; break;
      case 1: res.shed = sched::ShedPolicy::RejectByClass; break;
      default: res.shed = sched::ShedPolicy::DeadlineAware; break;
    }
    if (draw() & 1) {
        res.breakerThreshold = 0.5;
        res.breakerWindow = 2 + unsigned(draw() % 3);
        res.breakerCooldown = 250000 + draw() % 500000;
    }
    res.migrationBudget = 1 + unsigned(draw() % 3);
    return res;
}

/** A NodeFailure-only fault config for one fuzz seed. */
sim::FaultConfig
fuzzFaults(std::uint64_t seed)
{
    std::uint64_t state = seed * 0x94D049BB133111EBull + 5;
    auto draw = [&state] { return sched::splitmix64(state); };

    sim::FaultConfig fc;
    fc.seed = seed;
    fc.rate = (draw() & 1) ? 1.0 : 0.5;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = 1500000 + draw() % 4000000;
    fc.nodeDownCycles = 500000 + draw() % 1000000;
    return fc;
}

TEST_F(StreamFuzz, FiftyResilientSeedsDifferentialAndChecked)
{
    // One cache per replay, shared across all seeds: both replays see
    // the same fetch sequence, so the full reports — cache stats
    // included — must match byte for byte at every seed.
    sched::TraceCache cache_plain, cache_checked;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE("resilient fuzz seed " + std::to_string(seed));
        const sched::StreamConfig cfg = fuzzConfig(seed);
        const sched::ResilienceConfig res = fuzzResilience(seed);
        const sim::FaultConfig fc = fuzzFaults(seed);

        // Fresh fault plans per replay: windows are a pure function of
        // the seed, so both plans yield identical outage schedules, and
        // the per-plan fired-failure log stays per-replay.
        sim::FaultPlan plain_plan(fc);
        harness::RunOptions plain_opts;
        plain_opts.faults = &plain_plan;
        sched::StreamScheduler plain_sched(*wl_,
                                           sim::MachineConfig::baseline(),
                                           cfg, plain_opts, &cache_plain,
                                           res);
        const std::string plain_json =
            toJson(plain_sched.run(), true).dump();

        sim::FaultPlan checked_plan(fc);
        sim::InvariantChecker checker;
        harness::RunOptions checked_opts;
        checked_opts.faults = &checked_plan;
        checked_opts.checker = &checker;
        sched::StreamScheduler checked_sched(
            *wl_, sim::MachineConfig::baseline(), cfg, checked_opts,
            &cache_checked, res);
        const sched::StreamResult checked = checked_sched.run();

        ASSERT_EQ(plain_json, toJson(checked, true).dump())
            << "the checker perturbed the resilient stream";
        ASSERT_EQ(checker.totalViolations(), 0u)
            << "invariant violations in the checked replay";

        // Conservation at every seed: each instance resolves exactly once.
        const sched::ClassSlo &t = checked.resilience.total;
        ASSERT_EQ(t.submitted, cfg.instances);
        ASSERT_EQ(t.goodput + t.timeouts + t.shedQueue + t.shedBreaker +
                      t.shedExpired + t.abandoned,
                  t.submitted);
    }
}

} // namespace
