/**
 * @file
 * Unit and property tests for the query-stream scheduler (src/sched/):
 * percentile math (exact on small vectors, non-finite-guarded), the
 * deterministic stream model, the content-addressed trace cache, capture
 * purity, cache-hit bit-identity, dispatch-policy ordering, the
 * cold-cache repeat-instance regression for state leaking across
 * back-to-back instances, and the stream report's schema and latency
 * algebra.
 *
 * The simulation-backed tests share one tiny-scale Workload and one
 * TraceCache through a test fixture: stream captures are pure (that is
 * itself asserted here), so sharing cannot couple the tests, and it
 * keeps the suite fast.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/registry.hh"
#include "obs/stats_json.hh"
#include "sched/latency.hh"
#include "sched/scheduler.hh"
#include "sched/stream.hh"
#include "sched/trace_cache.hh"
#include "sim/check.hh"

namespace {

using namespace dss;

// ---------------------------------------------------------------- latency

TEST(Percentile, ExactOnSmallVectors)
{
    const std::vector<double> v = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(sched::percentile(v, 0), 10);
    EXPECT_DOUBLE_EQ(sched::percentile(v, 100), 40);
    // rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
    EXPECT_DOUBLE_EQ(sched::percentile(v, 50), 25);
    // rank = 0.25 * 3 = 0.75 -> 10 + 0.75 * 10.
    EXPECT_DOUBLE_EQ(sched::percentile(v, 25), 17.5);
    EXPECT_DOUBLE_EQ(sched::percentile({7}, 95), 7);
}

TEST(Percentile, UnsortedInputIsSorted)
{
    EXPECT_DOUBLE_EQ(sched::percentile({30, 10, 40, 20}, 50), 25);
}

TEST(Percentile, EmptyAndNonFinite)
{
    EXPECT_DOUBLE_EQ(sched::percentile({}, 50), 0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(sched::percentile({nan, inf, -inf}, 50), 0);
    // Non-finite values are discarded, not counted.
    EXPECT_DOUBLE_EQ(sched::percentile({nan, 5.0, inf}, 50), 5);
}

TEST(Percentile, ClampsP)
{
    const std::vector<double> v = {1, 2, 3};
    EXPECT_DOUBLE_EQ(sched::percentile(v, -10), 1);
    EXPECT_DOUBLE_EQ(sched::percentile(v, 1000), 3);
}

TEST(LatencySummary, SummarizesFiniteValues)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    sched::LatencySummary s = sched::summarize({4, 1, nan, 2, 3});
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.p50, 2.5);
    EXPECT_DOUBLE_EQ(s.max, 4);

    sched::LatencySummary empty = sched::summarize({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0);
    EXPECT_DOUBLE_EQ(empty.p99, 0);
}

// ----------------------------------------------------------- stream model

TEST(StreamModel, InstancesAreDeterministic)
{
    sched::StreamConfig cfg;
    cfg.instances = 16;
    cfg.seed = 7;
    cfg.mode = sched::ArrivalMode::Open;
    cfg.meanInterarrival = 100000;
    const auto a = sched::makeInstances(cfg);
    const auto b = sched::makeInstances(cfg);
    ASSERT_EQ(a.size(), 16u);
    for (unsigned i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].query, b[i].query);
        EXPECT_EQ(a[i].paramSeed, b[i].paramSeed);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        if (i > 0) {
            EXPECT_GT(a[i].arrival, a[i - 1].arrival)
                << "open-loop arrivals must be strictly increasing";
        }
    }

    cfg.seed = 8; // a different seed must change the stream
    const auto c = sched::makeInstances(cfg);
    bool any_diff = false;
    for (unsigned i = 0; i < c.size(); ++i)
        any_diff |= c[i].arrival != a[i].arrival ||
                    c[i].query != a[i].query;
    EXPECT_TRUE(any_diff);
}

TEST(StreamModel, ClosedLoopClientAssignment)
{
    sched::StreamConfig cfg;
    cfg.instances = 7;
    cfg.mode = sched::ArrivalMode::Closed;
    cfg.clients = 3;
    const auto v = sched::makeInstances(cfg);
    for (const sched::QueryInstance &q : v) {
        EXPECT_EQ(q.client, q.id % 3);
        EXPECT_EQ(q.arrival, 0u); // filled in by the scheduler
    }
}

TEST(StreamModel, MixWeightsAreRespected)
{
    sched::StreamConfig cfg;
    cfg.instances = 64;
    cfg.mix = {{tpcd::QueryId::Q6, 1}};
    for (const sched::QueryInstance &q : sched::makeInstances(cfg))
        EXPECT_EQ(q.query, tpcd::QueryId::Q6);
}

TEST(StreamModel, ServiceRankOrdersTheTracedQueries)
{
    EXPECT_LT(sched::serviceRank(tpcd::QueryId::Q6),
              sched::serviceRank(tpcd::QueryId::Q3));
    EXPECT_LT(sched::serviceRank(tpcd::QueryId::Q3),
              sched::serviceRank(tpcd::QueryId::Q12));
}

TEST(StreamModel, ServiceRankFallsBackToTaxonomy)
{
    // Untraced queries rank behind the calibrated three, ordered by the
    // paper's access-pattern taxonomy.
    EXPECT_EQ(sched::serviceRank(tpcd::QueryId::Q1), 3u);  // Sequential
    EXPECT_EQ(sched::serviceRank(tpcd::QueryId::Q2), 4u);  // Index
    EXPECT_EQ(sched::serviceRank(tpcd::QueryId::Q9), 5u);  // Mixed
}

TEST(StreamModel, RejectsDegenerateConfigs)
{
    sched::StreamConfig zero_weight;
    for (sched::MixEntry &m : zero_weight.mix)
        m.weight = 0;
    EXPECT_THROW(sched::makeInstances(zero_weight), std::invalid_argument);

    sched::StreamConfig no_clients;
    no_clients.mode = sched::ArrivalMode::Closed;
    no_clients.clients = 0;
    EXPECT_THROW(sched::makeInstances(no_clients), std::invalid_argument);
}

TEST(StreamModel, ParsePolicy)
{
    EXPECT_EQ(sched::parsePolicy("fifo"), sched::Policy::Fifo);
    EXPECT_EQ(sched::parsePolicy("shortest"),
              sched::Policy::ShortestClass);
    EXPECT_FALSE(sched::parsePolicy("sjf").has_value());
}

// ------------------------------------------------------------ trace cache

TEST(TraceCacheUnit, HitSkipsCapture)
{
    sched::TraceCache cache;
    const sched::TraceCache::Key key{tpcd::QueryId::Q6, 1, 0};
    int captures = 0;
    auto capture = [&] {
        ++captures;
        sim::TraceStream s;
        s.record(sim::TraceEntry::read(0x1000, sim::DataClass::Data, 4));
        return s;
    };
    const sched::TraceCache::Entry &a = cache.fetch(key, capture);
    const sched::TraceCache::Entry &b = cache.fetch(key, capture);
    EXPECT_EQ(captures, 1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().traceEntries, a.stream.entries().size());
    // The hash stored at capture is the stored bytes' hash.
    EXPECT_EQ(a.hash, a.stream.contentHash());
    EXPECT_EQ(cache.contentHashOf(key), a.hash);
    EXPECT_EQ(cache.lookup(key), &a.stream);

    // A different processor slot is a different key.
    const sched::TraceCache::Key other{tpcd::QueryId::Q6, 1, 1};
    EXPECT_EQ(cache.lookup(other), nullptr);
    cache.fetch(other, capture);
    EXPECT_EQ(captures, 2);
}

TEST(TraceCacheUnit, RegistersCounters)
{
    sched::TraceCache cache;
    obs::Registry reg;
    cache.registerStats(reg);
    cache.fetch({tpcd::QueryId::Q3, 9, 2}, [] {
        sim::TraceStream s;
        s.record(sim::TraceEntry::read(0x2000, sim::DataClass::Data, 4));
        return s;
    });
    EXPECT_EQ(reg.counterValue("cache.misses"), 1u);
    EXPECT_EQ(reg.counterValue("cache.hits"), 0u);
    EXPECT_EQ(reg.counterValue("cache.entries"), 1u);
    EXPECT_EQ(reg.counterValue("cache.trace_entries"), 1u);
}

// ------------------------------------------------- simulation-backed tests

/** Shared tiny workload + cache: captures are pure, so sharing is safe. */
class SchedSim : public ::testing::Test
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

    static sched::StreamResult run(const sched::StreamConfig &scfg,
                                   sched::TraceCache *cache,
                                   unsigned nprocs = 4)
    {
        sim::MachineConfig cfg = sim::MachineConfig::baseline();
        cfg.nprocs = nprocs;
        sched::StreamScheduler s(*wl_, cfg, scfg, harness::RunOptions{},
                                 cache);
        return s.run();
    }

    static harness::Workload *wl_;
    static sched::TraceCache *cache_;
};

harness::Workload *SchedSim::wl_ = nullptr;
sched::TraceCache *SchedSim::cache_ = nullptr;

TEST_F(SchedSim, StreamCaptureIsPure)
{
    // Byte-identical repeat captures, even with other captures between.
    sim::TraceStream a = wl_->streamTrace(tpcd::QueryId::Q3, 5, 1);
    sim::TraceStream other = wl_->streamTrace(tpcd::QueryId::Q12, 6, 0);
    sim::TraceStream b = wl_->streamTrace(tpcd::QueryId::Q3, 5, 1);
    ASSERT_EQ(a.entries().size(), b.entries().size());
    EXPECT_EQ(a.contentHash(), b.contentHash());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const sim::TraceEntry &x = a.entries()[i];
        const sim::TraceEntry &y = b.entries()[i];
        ASSERT_TRUE(x.addr == y.addr && x.op == y.op && x.cls == y.cls &&
                    x.size == y.size && x.extra == y.extra)
            << "first divergence at entry " << i;
    }
    EXPECT_NE(a.contentHash(), other.contentHash());
}

TEST_F(SchedSim, CacheHitPathIsBitIdenticalToMissPath)
{
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 3;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 4;
    scfg.paramVariants = 2; // force repeats -> cache hits

    // A fresh cache captures every key on its first use (its misses)...
    sched::TraceCache fresh;
    sched::StreamResult first = run(scfg, &fresh);
    EXPECT_GT(first.cache.misses, 0u);

    // ...and a rerun serves every instance from the stored captures.
    // Cache accounting differs by construction, but every simulated
    // number is bit-identical: per-instance records (full SimStats
    // included) and the derived summaries.
    sched::StreamResult warm = run(scfg, &fresh);
    EXPECT_EQ(warm.cache.misses, first.cache.misses);
    EXPECT_EQ(warm.cache.hits - first.cache.hits, scfg.instances);
    obs::Json a = toJson(first, true);
    obs::Json w = toJson(warm, true);
    EXPECT_EQ(w["records"].dump(), a["records"].dump());
    EXPECT_EQ(w["summary"].dump(), a["summary"].dump());

    // Each record carries the hash the cache stored at capture, hit or
    // miss: a fresh hash of the bytes the cache holds for its key.
    for (const sched::StreamResult *r : {&first, &warm}) {
        for (const sched::InstanceRecord &rec : r->records) {
            EXPECT_EQ(rec.traceHash,
                      fresh.contentHashOf(
                          {rec.inst.query, rec.inst.paramSeed, rec.proc}))
                << "instance " << rec.inst.id;
        }
    }
}

TEST_F(SchedSim, PolicyOrdersDispatchDeterministically)
{
    // One processor, every instance queued at cycle 0: FIFO must run in
    // id order; shortest-class in (serviceRank, id) order.
    sched::StreamConfig scfg;
    scfg.instances = 6;
    scfg.seed = 9;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 6; // each instance is a client's first -> all at 0

    scfg.policy = sched::Policy::Fifo;
    sched::StreamResult fifo = run(scfg, cache_, 1);
    ASSERT_EQ(fifo.records.size(), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(fifo.records[i].inst.id, i);

    scfg.policy = sched::Policy::ShortestClass;
    sched::StreamResult sc = run(scfg, cache_, 1);
    std::vector<sched::QueryInstance> expect = sched::makeInstances(scfg);
    std::stable_sort(expect.begin(), expect.end(),
                     [](const sched::QueryInstance &a,
                        const sched::QueryInstance &b) {
                         return sched::serviceRank(a.query) <
                                sched::serviceRank(b.query);
                     });
    ASSERT_EQ(sc.records.size(), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(sc.records[i].inst.id, expect[i].id)
            << "shortest-class dispatch order diverged at slot " << i;
}

TEST_F(SchedSim, ColdCacheRepeatInstancesAreIdentical)
{
    // Regression for state carried across back-to-back instances: the
    // same query/parameters run twice in one stream, machine memory
    // flushed before each instance, must produce identical per-instance
    // statistics — any lock-table or write-buffer carry-over between
    // instances shows up as a diff here. (Capture-side carry-over, such
    // as the xid counter or the lock hash, is StreamCaptureIsPure's.)
    sched::StreamConfig scfg;
    scfg.instances = 2;
    scfg.seed = 21;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 1; // serialize on one client
    scfg.mix = {{tpcd::QueryId::Q3, 1}};
    scfg.paramVariants = 1; // both instances: identical parameters
    scfg.coldCache = true;
    scfg.policy = sched::Policy::Fifo;

    sched::TraceCache fresh;
    sched::StreamResult r = run(scfg, &fresh, 1);
    ASSERT_EQ(r.records.size(), 2u);
    const sched::InstanceRecord &a = r.records[0];
    const sched::InstanceRecord &b = r.records[1];
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(obs::toJson(a.stats).dump(), obs::toJson(b.stats).dump());
}

TEST_F(SchedSim, CheckedStreamIsViolationFree)
{
    sched::StreamConfig scfg;
    scfg.instances = 4;
    scfg.seed = 13;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 2;

    sim::InvariantChecker checker;
    harness::RunOptions opts;
    opts.checker = &checker;
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    sched::StreamScheduler s(*wl_, cfg, scfg, opts, cache_);
    sched::StreamResult r = s.run();
    EXPECT_EQ(r.records.size(), 4u);
    EXPECT_EQ(checker.totalViolations(), 0u);
}

TEST_F(SchedSim, RegistryExportsSchedAndCacheCounters)
{
    sched::StreamConfig scfg;
    scfg.instances = 3;
    scfg.seed = 2;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 400000;

    harness::RunOptions opts;
    obs::Json snapshot;
    opts.registrySnapshot = &snapshot;
    sched::TraceCache fresh;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, &fresh);
    s.run();
    ASSERT_TRUE(snapshot.isObject());
    ASSERT_NE(snapshot.find("sched.instances"), nullptr);
    EXPECT_EQ(snapshot.find("sched.instances")->asUint(), 3u);
    EXPECT_EQ(snapshot.find("sched.completed")->asUint(), 3u);
    ASSERT_NE(snapshot.find("cache.misses"), nullptr);
    EXPECT_GT(snapshot.find("cache.misses")->asUint(), 0u);
    EXPECT_EQ(snapshot.find("sched.cache.misses"), nullptr)
        << "the cache registers its counters once, as cache.*";
    ASSERT_NE(snapshot.find("proc0.busy"), nullptr);
}

TEST_F(SchedSim, StreamReportAlgebraHolds)
{
    // What a throughput_stream --json point carries: the stream report
    // without per-run stats plus the end-of-stream registry snapshot.
    // Its schema and latency algebra hold record by record.
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 42;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 4;

    harness::RunOptions opts;
    obs::Json registry;
    opts.registrySnapshot = &registry;
    sched::TraceCache fresh;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, &fresh);
    const obs::Json j = toJson(s.run(), /*include_run_stats=*/false);

    for (const char *key : {"config", "summary", "cache", "records"})
        ASSERT_NE(j.find(key), nullptr) << key;
    const obs::Json &summ = *j.find("summary");
    for (const char *key : {"instances", "makespan", "throughput_per_mcycle",
                            "latency", "wait", "service", "by_query"})
        ASSERT_NE(summ.find(key), nullptr) << key;
    for (const char *dist : {"latency", "wait", "service"})
        for (const char *key : {"count", "mean", "p50", "p95", "p99", "max"})
            EXPECT_NE(summ.find(dist)->find(key), nullptr)
                << dist << "." << key;

    const std::uint64_t n = summ.find("instances")->asUint();
    EXPECT_EQ(n, scfg.instances);
    const obs::Json &records = *j.find("records");
    ASSERT_EQ(records.size(), n);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const obs::Json &rec = records.at(i);
        for (const char *key : {"id", "query", "param_seed", "proc",
                                "arrival", "start", "complete", "service",
                                "wait", "latency", "trace_hash"})
            ASSERT_NE(rec.find(key), nullptr) << key;
        const auto at = [&](const char *key) {
            return rec.find(key)->asUint();
        };
        EXPECT_EQ(at("complete"), at("start") + at("service"));
        EXPECT_EQ(at("latency"), at("complete") - at("arrival"));
    }

    ASSERT_TRUE(registry.isObject());
    ASSERT_NE(registry.find("sched.completed"), nullptr);
    EXPECT_EQ(registry.find("sched.completed")->asUint(), n);
    // Every instance fetches its trace exactly once.
    const obs::Json &cache = *j.find("cache");
    EXPECT_EQ(cache.find("hits")->asUint() + cache.find("misses")->asUint(),
              n);
}

TEST_F(SchedSim, RejectsOversizedMachine)
{
    sched::StreamConfig scfg;
    harness::RunOptions opts;
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 8; // workload only provisions 4 private heaps
    EXPECT_THROW(
        sched::StreamScheduler(*wl_, cfg, scfg, opts, cache_),
        std::invalid_argument);
    // Every instance's trace comes through the cache: none is an error.
    EXPECT_THROW(sched::StreamScheduler(*wl_, sim::MachineConfig::baseline(),
                                        scfg, opts, nullptr),
                 std::invalid_argument);
}

} // namespace
