/**
 * @file
 * Tests for the experiment harness: workload tracing, cold/warm runs, and
 * report formatting.
 */

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "obs/registry.hh"
#include "obs/stats_json.hh"

namespace {

using namespace dss;

struct WorkloadFixture : ::testing::Test
{
    harness::Workload wl{tpcd::ScaleConfig::tiny(), 2, 42};
};

TEST_F(WorkloadFixture, TraceProducesOneStreamPerProcessor)
{
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_FALSE(traces[0].empty());
    EXPECT_FALSE(traces[1].empty());
}

TEST_F(WorkloadFixture, ProcessorsGetDistinctParameters)
{
    // Paper Section 4.3: same query type, different parameters per
    // processor. Different parameters -> different reference streams.
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    EXPECT_NE(traces[0].size(), traces[1].size());
}

TEST_F(WorkloadFixture, ProcessorsTouchTheSameSharedData)
{
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    // Both scan the same lineitem pages: the set of shared Data addresses
    // overlaps heavily.
    auto shared_addrs = [](const sim::TraceStream &t) {
        std::set<sim::Addr> out;
        for (const sim::TraceEntry &e : t.entries())
            if (e.op == sim::Op::Read && e.cls == sim::DataClass::Data)
                out.insert(e.addr & ~63ull);
        return out;
    };
    std::set<sim::Addr> a = shared_addrs(traces[0]);
    std::set<sim::Addr> b = shared_addrs(traces[1]);
    std::size_t common = 0;
    for (sim::Addr x : a)
        common += b.count(x);
    EXPECT_GT(common, a.size() / 2);
}

TEST_F(WorkloadFixture, PrivateReferencesAreProcessorLocal)
{
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    for (unsigned p = 0; p < 2; ++p) {
        for (const sim::TraceEntry &e : traces[p].entries()) {
            if (e.op != sim::Op::Read && e.op != sim::Op::Write)
                continue;
            if (e.cls == sim::DataClass::Priv) {
                EXPECT_EQ(wl.db().space().ownerOf(e.addr), p)
                    << "private ref of proc " << p << " in wrong arena";
            }
        }
    }
}

TEST_F(WorkloadFixture, TracesAreLockBalanced)
{
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    for (const sim::TraceStream &t : traces) {
        std::map<sim::Addr, int> held;
        for (const sim::TraceEntry &e : t.entries()) {
            if (e.op == sim::Op::LockAcq)
                ++held[e.addr];
            else if (e.op == sim::Op::LockRel)
                --held[e.addr];
            EXPECT_GE(held.empty() ? 0 : held.begin()->second, 0);
        }
        for (const auto &[addr, n] : held)
            EXPECT_EQ(n, 0) << "lock 0x" << std::hex << addr
                            << " not released";
    }
}

TEST_F(WorkloadFixture, TracingIsDeterministicAcrossWorkloads)
{
    // Two identically seeded workloads produce identical traces. (Within
    // one workload, consecutive queries use fresh transaction ids, whose
    // xid-hash probe paths legitimately differ.)
    harness::Workload other(tpcd::ScaleConfig::tiny(), 2, 42);
    sim::TraceStream a = wl.traceOne(tpcd::QueryId::Q6, 0, 99);
    sim::TraceStream b = other.traceOne(tpcd::QueryId::Q6, 0, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.entries()[i].addr, b.entries()[i].addr);
        EXPECT_EQ(a.entries()[i].op, b.entries()[i].op);
    }
}

TEST_F(WorkloadFixture, RunColdAndWarmSequences)
{
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 2;
    cfg = cfg.withCacheSizes(1 << 20, 32 << 20); // big enough to reuse

    sim::SimStats cold = harness::runCold(cfg, traces);
    std::vector<sim::SimStats> seq =
        harness::runSequence(cfg, {&traces, &traces});
    ASSERT_EQ(seq.size(), 2u);
    // First run of the sequence == a cold run.
    EXPECT_EQ(seq[0].aggregate().l2Misses().total(),
              cold.aggregate().l2Misses().total());
    // Warm run reuses the whole scanned table.
    EXPECT_LT(seq[1].aggregate().l2Misses().byGroup(sim::ClassGroup::Data),
              cold.aggregate().l2Misses().byGroup(sim::ClassGroup::Data) /
                  4);
}

// --- ObsSession::runJobs -----------------------------------------------

/** @p j as its report holds it: dumped, then parsed back. */
std::string
reparsed(const obs::Json &j)
{
    return obs::Json::parse(j.dump()).dump();
}

/**
 * Run @p jobs in a --json session under --placement @p placement; return
 * the written report, and the returned stats through @p stats.
 */
obs::Json
sessionReport(const std::vector<harness::Job> &jobs, const char *placement,
              std::vector<sim::SimStats> *stats = nullptr)
{
    harness::BenchOptions opts;
    opts.jsonPath = ::testing::TempDir() + "run_jobs_report.json";
    opts.placement = *sim::PlacementSpec::parse(placement);
    harness::ObsSession session("test_harness", opts);
    std::vector<sim::SimStats> out = session.runJobs(jobs);
    std::ostringstream err;
    EXPECT_TRUE(session.finish(jobs.front().cfg, err)) << err.str();
    if (stats)
        *stats = std::move(out);
    std::ifstream in(opts.jsonPath);
    std::stringstream text;
    text << in.rdbuf();
    return obs::Json::parse(text.str());
}

struct RunJobsFixture : WorkloadFixture
{
    sim::MachineConfig cfg = [] {
        sim::MachineConfig c = sim::MachineConfig::baseline();
        c.nprocs = 2;
        return c;
    }();
    harness::TraceSet q3 = wl.trace(tpcd::QueryId::Q3);
    harness::TraceSet q6 = wl.trace(tpcd::QueryId::Q6);

    harness::Job
    job(const std::string &label,
        std::vector<const harness::TraceSet *> sequence)
    {
        return {label, cfg, std::move(sequence), &wl.db().space()};
    }
};

TEST_F(RunJobsFixture, RecordsEveryJobInJobOrder)
{
    harness::Job wide = job("Q6/32B", {&q6});
    wide.cfg = cfg.withLineSize(32);
    std::vector<sim::SimStats> stats;
    const obs::Json doc = sessionReport(
        {job("Q6", {&q6}), job("Q3", {&q3}), wide}, "interleave", &stats);

    const obs::Json *runs = doc.find("runs");
    ASSERT_TRUE(runs);
    ASSERT_EQ(runs->size(), 3u);
    ASSERT_EQ(stats.size(), 3u);
    const char *const labels[] = {"Q6", "Q3", "Q6/32B"};
    for (std::size_t i = 0; i < 3; ++i) {
        const obs::Json &run = runs->at(i);
        EXPECT_EQ(run.find("label")->asString(), labels[i]);
        EXPECT_EQ(run.find("stats")->dump(),
                  reparsed(obs::toJson(stats[i])));
        ASSERT_TRUE(run.find("counters"));
        EXPECT_GT(run.find("counters")->size(), 0u);
    }
    // The line-size job ran its own machine: its misses differ from Q6's.
    EXPECT_NE(stats[0].aggregate().l2Misses().total(),
              stats[2].aggregate().l2Misses().total());
}

TEST_F(RunJobsFixture, EachJobPlacesItsOwnPages)
{
    // First-touch and profile claims live in the policy, so a policy
    // shared across jobs would carry Q3's claims into Q6's run.
    for (const char *placement : {"first-touch", "profile"}) {
        const obs::Json after = sessionReport(
            {job("Q3", {&q3}), job("Q6", {&q6})}, placement);
        const obs::Json alone = sessionReport({job("Q6", {&q6})}, placement);
        const obs::Json &a = after.find("runs")->at(1);
        const obs::Json &b = alone.find("runs")->at(0);
        ASSERT_TRUE(a.find("counters") && b.find("counters"));
        EXPECT_EQ(a.find("stats")->dump(), b.find("stats")->dump())
            << placement;
        // The counters carry the per-hop transaction counts.
        EXPECT_EQ(a.find("counters")->dump(), b.find("counters")->dump())
            << placement;
    }
}

TEST_F(RunJobsFixture, AWarmChainRecordsItsLastRun)
{
    const obs::Json doc =
        sessionReport({job("Q6 after Q3", {&q3, &q6})}, "interleave");

    obs::Json registry;
    harness::RunOptions ro;
    ro.registrySnapshot = &registry;
    const std::vector<sim::SimStats> seq =
        harness::runSequence(cfg, {&q3, &q6}, ro);

    const obs::Json *runs = doc.find("runs");
    ASSERT_EQ(runs->size(), 1u);
    const obs::Json &run = runs->at(0);
    EXPECT_EQ(run.find("label")->asString(), "Q6 after Q3");
    EXPECT_EQ(run.find("stats")->dump(), reparsed(obs::toJson(seq.back())));
    EXPECT_NE(run.find("stats")->dump(), reparsed(obs::toJson(seq.front())));
    EXPECT_EQ(run.find("counters")->dump(), reparsed(registry));
}

TEST(Report, FixedAndPctFormat)
{
    EXPECT_EQ(harness::fixed(12.345, 1), "12.3");
    EXPECT_EQ(harness::fixed(2.0, 2), "2.00");
    EXPECT_EQ(harness::pct(1, 4), "25.0");
    EXPECT_EQ(harness::pct(1, 0), "0.0"); // guard against empty whole
}

TEST(Report, FormattersNeverEmitNanOrInf)
{
    // A zero-length run divides by zero everywhere; the tables must not
    // print "nan"/"inf" for it.
    EXPECT_EQ(harness::pct(0, 0), "0.0");
    EXPECT_EQ(harness::pct(5, -1), "0.0");
    EXPECT_EQ(harness::fixed(std::nan(""), 1), "n/a");
    EXPECT_EQ(harness::fixed(1.0 / 0.0, 1), "n/a");
    EXPECT_EQ(harness::fixed(-1.0 / 0.0, 2), "n/a");
    EXPECT_EQ(harness::fixed(0.0 / 0.0), "n/a");
}

TEST(Report, TimeBreakdownFractionsSumToOne)
{
    sim::SimStats st;
    st.procs.resize(1);
    st.procs[0].busy = 600;
    st.procs[0].memStall = 300;
    st.procs[0].syncStall = 100;
    harness::TimeBreakdown tb = harness::timeBreakdown(st);
    EXPECT_EQ(tb.total, 1000u);
    EXPECT_DOUBLE_EQ(tb.busy + tb.mem + tb.msync, 1.0);
}

TEST(Report, MemBreakdownFollowsGroups)
{
    sim::SimStats st;
    st.procs.resize(1);
    st.procs[0].memStall = 100;
    st.procs[0].memStallByGroup[static_cast<int>(
        sim::ClassGroup::Data)] = 75;
    st.procs[0].memStallByGroup[static_cast<int>(
        sim::ClassGroup::Priv)] = 25;
    harness::MemBreakdown mb = harness::memBreakdown(st);
    EXPECT_DOUBLE_EQ(
        mb.byGroup[static_cast<int>(sim::ClassGroup::Data)], 0.75);
    EXPECT_DOUBLE_EQ(
        mb.byGroup[static_cast<int>(sim::ClassGroup::Priv)], 0.25);
}

TEST(Report, TextTableAlignsColumns)
{
    harness::TextTable t({"a", "long_header"});
    t.addRow({"xxxx", "1"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("a     long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(Report, MissTablePrintsOnlyNonEmptyRows)
{
    sim::MissTable t;
    t.add(sim::DataClass::Data, sim::MissType::Cold, 60);
    t.add(sim::DataClass::LockSLock, sim::MissType::Cohe, 40);
    std::ostringstream os;
    harness::printMissTable(os, "test", t);
    std::string out = os.str();
    EXPECT_NE(out.find("Data"), std::string::npos);
    EXPECT_NE(out.find("LockSLock"), std::string::npos);
    EXPECT_EQ(out.find("XidHash"), std::string::npos); // zero row omitted
    EXPECT_NE(out.find("60.0"), std::string::npos);    // normalized to 100
}

TEST(Report, SweepTablesNormalizeToTheBasePoint)
{
    std::vector<harness::SweepPoint> points(2);
    points[0].label = "small";
    points[0].stats.busy = 60;
    points[0].stats.memStall = 40;
    points[0].stats.memStallByGroup[static_cast<std::size_t>(
        sim::ClassGroup::Priv)] = 10;
    points[0].stats.l2Misses().add(sim::DataClass::Data,
                                   sim::MissType::Cold, 8);
    points[1].label = "big";
    points[1].stats.busy = 60;
    points[1].stats.memStall = 20;
    points[1].stats.l2Misses().add(sim::DataClass::Data,
                                   sim::MissType::Cold, 8);
    points[1].stats.l2Misses().add(sim::DataClass::Index,
                                   sim::MissType::Conf, 2);

    std::ostringstream time;
    harness::printTimeSweep(time, "Q6", "caches", points, 0);
    // Busy, PMem, SMem, MSync, Total against the first point's 100 cycles.
    EXPECT_NE(time.str().find("small   60.0  10.0  30.0  0.0    100.0"),
              std::string::npos)
        << time.str();
    EXPECT_NE(time.str().find("big     60.0  0.0   20.0  0.0    80.0"),
              std::string::npos)
        << time.str();

    std::ostringstream misses;
    harness::printGroupMissSweep(misses, "Q6", "caches", points, 1);
    const std::string out = misses.str();
    // The primary cache saw no misses: cells stay 0 instead of n/a.
    EXPECT_EQ(out.find("n/a"), std::string::npos) << out;
    const std::size_t l2 = out.find("Q6: secondary cache misses");
    ASSERT_NE(l2, std::string::npos) << out;
    // Priv, Data, Index, Metadata, Total against the big point's 10.
    EXPECT_NE(out.find("small   0.0   80.0  0.0    0.0       80.0", l2),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("big     0.0   80.0  20.0   0.0       100.0", l2),
              std::string::npos)
        << out;
}

TEST(Report, TracePtrsViewsAllStreams)
{
    harness::TraceSet set(3);
    auto ptrs = harness::tracePtrs(set);
    ASSERT_EQ(ptrs.size(), 3u);
    EXPECT_EQ(ptrs[0], &set[0]);
    EXPECT_EQ(ptrs[2], &set[2]);
}

} // namespace
