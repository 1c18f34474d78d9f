/**
 * @file
 * Observability layer: counter registry, JSON writer/parser round-trips,
 * epoch-sampler delta reconciliation against end-of-run stats, and the
 * Chrome trace-event exporter.
 */

#include <cmath>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/stats_json.hh"
#include "obs/timeline.hh"

using namespace dss;

// ---------------------------------------------------------------- registry

TEST(Registry, CountersAndGaugesReadLiveValues)
{
    obs::Registry reg;
    std::uint64_t hits = 0;
    reg.addCounter("l1.hits", [&] { return hits; });
    reg.addGauge("l1.hit_rate", [&] { return hits ? 0.5 : 0.0; });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("l1.hits"));
    EXPECT_FALSE(reg.contains("l1.misses"));
    EXPECT_EQ(reg.counterValue("l1.hits"), 0u);

    hits = 41;
    EXPECT_EQ(reg.counterValue("l1.hits"), 41u); // live view, not a copy
    EXPECT_DOUBLE_EQ(reg.gaugeValue("l1.hit_rate"), 0.5);
}

TEST(Registry, DuplicateNamesThrow)
{
    obs::Registry reg;
    reg.addCounter("proc0.busy", [] { return std::uint64_t{1}; });
    EXPECT_THROW(reg.addCounter("proc0.busy", [] { return std::uint64_t{2}; }),
                 std::invalid_argument);
    EXPECT_THROW(reg.addGauge("proc0.busy", [] { return 1.0; }),
                 std::invalid_argument);
    EXPECT_THROW(reg.counterValue("no.such.metric"), std::invalid_argument);
}

TEST(Registry, NamesAndJsonAreSorted)
{
    obs::Registry reg;
    reg.addCounter("b", [] { return std::uint64_t{2}; });
    reg.addCounter("a.z", [] { return std::uint64_t{1}; });
    reg.addGauge("a.a", [] { return 3.0; });

    const std::vector<std::string> expect = {"a.a", "a.z", "b"};
    EXPECT_EQ(reg.names(), expect);

    obs::Json j = reg.toJson();
    ASSERT_EQ(j.size(), 3u);
    EXPECT_EQ(j.members()[0].first, "a.a");
    EXPECT_EQ(j.members()[2].first, "b");
    EXPECT_EQ(j.find("a.z")->asUint(), 1u);
}

TEST(Registry, MetricNameJoinsWithDots)
{
    EXPECT_EQ(obs::metricName("proc0.l1", "hits"), "proc0.l1.hits");
    EXPECT_EQ(obs::metricName("", "dir"), "dir");
    EXPECT_EQ(obs::metricName("dir", ""), "dir");
}

TEST(Registry, MachineRegistersHierarchicalNames)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::Json snapshot;
    harness::RunOptions ro;
    ro.registrySnapshot = &snapshot;
    sim::SimStats stats = harness::runCold(cfg, traces, ro);

    ASSERT_TRUE(snapshot.isObject());
    // The per-proc stat views must agree with the returned stats.
    EXPECT_EQ(snapshot.find("proc0.busy")->asUint(), stats.procs[0].busy);
    EXPECT_EQ(snapshot.find("proc1.reads")->asUint(), stats.procs[1].reads);
    // Component counters exist under their hierarchical prefixes.
    EXPECT_NE(snapshot.find("proc0.l1.lookups"), nullptr);
    EXPECT_NE(snapshot.find("proc0.l2.fills"), nullptr);
    EXPECT_NE(snapshot.find("proc0.wb.stores"), nullptr);
    EXPECT_NE(snapshot.find("dir.requests"), nullptr);
    EXPECT_NE(snapshot.find("locks.acquires"), nullptr);
    // Fig 7-style per-class miss cells.
    std::uint64_t l1_total = 0;
    for (const auto &[name, value] : snapshot.members())
        if (name.find(".l1.miss.") != std::string::npos)
            l1_total += value.asUint();
    EXPECT_EQ(l1_total, stats.aggregate().l1Misses().total());
}

// -------------------------------------------------------------------- json

TEST(Json, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape("\n\t\r"), "\\n\\t\\r");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, DumpsExactUint64)
{
    obs::Json j = obs::Json::object();
    j["big"] = std::uint64_t{18446744073709551615ull};
    j["cycles"] = std::uint64_t{9007199254740993ull}; // > 2^53
    const std::string text = j.dump();
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(text.find("9007199254740993"), std::string::npos);

    obs::Json back = obs::Json::parse(text);
    EXPECT_EQ(back.find("big")->asUint(), 18446744073709551615ull);
    EXPECT_EQ(back.find("cycles")->asUint(), 9007199254740993ull);
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    obs::Json j = obs::Json::array();
    j.push(std::nan(""));
    j.push(1.0 / 0.0);
    EXPECT_EQ(j.dump(), "[null,null]");
}

TEST(Json, ParseRoundTripsStringsAndNesting)
{
    const std::string text =
        R"({"s":"a\"\\\né😀","arr":[1,-2,3.5,true,null],)"
        R"("nested":{"k":[{"deep":"v"}]}})";
    obs::Json j = obs::Json::parse(text);
    EXPECT_EQ(j.find("s")->asString(), "a\"\\\n\xc3\xa9\xf0\x9f\x98\x80");
    EXPECT_EQ(j.find("arr")->at(1).asInt(), -2);
    EXPECT_DOUBLE_EQ(j.find("arr")->at(2).asDouble(), 3.5);
    EXPECT_TRUE(j.find("arr")->at(4).isNull());
    // dump -> parse -> dump is a fixed point.
    EXPECT_EQ(obs::Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
    EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
    EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(obs::Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(obs::Json::parse("{} trailing"), std::runtime_error);
}

TEST(Json, SimStatsSurvivesSerializationRoundTrip)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);

    obs::Json j = obs::toJson(stats);
    obs::Json back = obs::Json::parse(j.dump(2));

    const sim::ProcStats agg = stats.aggregate();
    EXPECT_EQ(back.find("executionTime")->asUint(), stats.executionTime());
    EXPECT_EQ(back.find("procs")->size(), stats.procs.size());
    const obs::Json *p0 = &back.find("procs")->at(0);
    EXPECT_EQ(p0->find("busy")->asUint(), stats.procs[0].busy);
    EXPECT_EQ(p0->find("memStall")->asUint(), stats.procs[0].memStall);
    const obs::Json *aggj = back.find("aggregate");
    ASSERT_NE(aggj, nullptr);
    EXPECT_EQ(aggj->find("reads")->asUint(), agg.reads);
    EXPECT_EQ(aggj->find("l1Misses")->find("total")->asUint(),
              agg.l1Misses().total());
}

// ----------------------------------------------------------------- sampler

namespace {

void
expectSameStats(const sim::ProcStats &a, const sim::ProcStats &b)
{
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.memStall, b.memStall);
    EXPECT_EQ(a.syncStall, b.syncStall);
    for (std::size_t g = 0; g < sim::kNumClassGroups; ++g)
        EXPECT_EQ(a.memStallByGroup[g], b.memStallByGroup[g]);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.assumedHitReads, b.assumedHitReads);
    EXPECT_EQ(a.l1Hits(), b.l1Hits());
    EXPECT_EQ(a.l2Accesses(), b.l2Accesses());
    EXPECT_EQ(a.l2Hits(), b.l2Hits());
    EXPECT_EQ(a.wbOverflows, b.wbOverflows);
    for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
        for (std::size_t t = 0; t < sim::kNumMissTypes; ++t) {
            const auto dc = static_cast<sim::DataClass>(c);
            const auto mt = static_cast<sim::MissType>(t);
            EXPECT_EQ(a.l1Misses().of(dc, mt), b.l1Misses().of(dc, mt));
            EXPECT_EQ(a.l2Misses().of(dc, mt), b.l2Misses().of(dc, mt));
        }
}

} // namespace

TEST(Sampler, RejectsZeroEpoch)
{
    EXPECT_THROW(obs::Sampler(0), std::invalid_argument);
}

TEST(Sampler, DeltasReconcileExactlyWithEndOfRunStats)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::Sampler sampler(5000); // small epoch: many samples
    harness::RunOptions ro;
    ro.sampler = &sampler;
    sim::SimStats stats = harness::runCold(cfg, traces, ro);

    ASSERT_GT(sampler.samples().size(), 2u);
    for (std::size_t p = 0; p < stats.procs.size(); ++p)
        expectSameStats(sampler.runTotal(0, p), stats.procs[p]);

    // Samples tile the run: contiguous, ordered, ending at executionTime.
    sim::Cycles prev_end = 0;
    for (const obs::EpochSample &s : sampler.samples()) {
        EXPECT_EQ(s.start, prev_end);
        EXPECT_GT(s.end, s.start);
        prev_end = s.end;
    }
    EXPECT_EQ(prev_end, stats.executionTime());
}

TEST(Sampler, ObservesEveryRunOfASequence)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet a = wl.trace(tpcd::QueryId::Q6, 11);
    harness::TraceSet b = wl.trace(tpcd::QueryId::Q6, 23);

    obs::Sampler sampler(5000);
    harness::RunOptions ro;
    ro.sampler = &sampler;
    std::vector<sim::SimStats> runs = harness::runSequence(cfg, {&a, &b}, ro);

    ASSERT_EQ(runs.size(), 2u);
    for (unsigned r = 0; r < 2; ++r)
        for (std::size_t p = 0; p < runs[r].procs.size(); ++p)
            expectSameStats(sampler.runTotal(r, p), runs[r].procs[p]);
}

TEST(Sampler, JsonSeriesMatchesSamples)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::Sampler sampler(10000);
    harness::RunOptions ro;
    ro.sampler = &sampler;
    harness::runCold(sim::MachineConfig::baseline(), traces, ro);

    obs::Json j = sampler.toJson();
    EXPECT_EQ(j.find("epochCycles")->asUint(), 10000u);
    const obs::Json *samples = j.find("samples");
    ASSERT_NE(samples, nullptr);
    ASSERT_EQ(samples->size(), sampler.samples().size());
    const obs::EpochSample &s0 = sampler.samples().front();
    const obs::Json &j0 = samples->at(0);
    EXPECT_EQ(j0.find("start")->asUint(), s0.start);
    EXPECT_EQ(j0.find("end")->asUint(), s0.end);
    EXPECT_EQ(j0.find("procs")->at(0).find("busy")->asUint(),
              s0.procs[0].busy);
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, CoalescesAdjacentSpansAndDropsOverlaps)
{
    obs::Timeline tl;
    tl.beginRun();
    tl.exec(0, obs::SpanKind::Busy, 0, 10);
    tl.exec(0, obs::SpanKind::Busy, 10, 20); // coalesced into [0, 20)
    tl.exec(0, obs::SpanKind::Mem, 20, 30);
    tl.exec(0, obs::SpanKind::Busy, 25, 35); // overlap: dropped
    tl.exec(0, obs::SpanKind::Busy, 30, 30); // empty: dropped

    const std::vector<obs::Span> &spans = tl.procSpans(0);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].start, 0u);
    EXPECT_EQ(spans[0].end, 20u);
    EXPECT_EQ(spans[1].kind, obs::SpanKind::Mem);
}

TEST(Timeline, LaysConsecutiveRunsOutSequentially)
{
    obs::Timeline tl;
    tl.beginRun();
    tl.exec(0, obs::SpanKind::Busy, 0, 100);
    tl.beginRun(); // second run restarts its clock at zero
    tl.exec(0, obs::SpanKind::Busy, 0, 50);

    const std::vector<obs::Span> &spans = tl.procSpans(0);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].start, 100u); // offset past run 1
    EXPECT_EQ(spans[1].end, 150u);
}

TEST(Timeline, ChromeExportIsValidTraceEventJson)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    obs::Timeline tl;
    harness::RunOptions ro;
    ro.timeline = &tl;
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces, ro);
    ASSERT_GT(tl.spanCount(), 0u);

    std::ostringstream os;
    tl.writeChromeJson(os);
    obs::Json doc = obs::Json::parse(os.str()); // throws if malformed

    const obs::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);

    bool saw_exec = false, saw_meta = false, saw_lock = false;
    sim::Cycles max_end = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const obs::Json &e = events->at(i);
        const std::string &ph = e.find("ph")->asString();
        if (ph == "M") {
            saw_meta = true;
            continue;
        }
        ASSERT_EQ(ph, "X"); // complete events only
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_GT(e.find("dur")->asUint(), 0u);
        const std::string &cat = e.find("cat")->asString();
        if (cat == "exec")
            saw_exec = true;
        else if (cat == "lock")
            saw_lock = true;
        max_end = std::max<sim::Cycles>(
            max_end, e.find("ts")->asUint() + e.find("dur")->asUint());
    }
    EXPECT_TRUE(saw_exec);
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_lock); // Q3 takes metalocks
    // 1 cycle == 1 us: no span may end past the execution time.
    EXPECT_LE(max_end, stats.executionTime());
}

// ---------------------------------------- acceptance: json == text tables

TEST(StatsJson, BreakdownMatchesTextTableArithmetic)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 2, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);

    const harness::TimeBreakdown tb = harness::timeBreakdown(stats);
    obs::Json parsed = obs::Json::parse(obs::toJson(stats).dump(2));
    const obs::Json *bd = parsed.find("breakdown");
    ASSERT_NE(bd, nullptr);

    // The same strings the fig6 text table prints.
    EXPECT_EQ(harness::fixed(bd->find("busyPct")->asDouble()),
              harness::fixed(100 * tb.busy));
    EXPECT_EQ(harness::fixed(bd->find("memPct")->asDouble()),
              harness::fixed(100 * tb.mem));
    EXPECT_EQ(harness::fixed(bd->find("msyncPct")->asDouble()),
              harness::fixed(100 * tb.msync));
    EXPECT_EQ(bd->find("totalCycles")->asUint(), tb.total);

    const harness::MemBreakdown mb = harness::memBreakdown(stats);
    const obs::Json *groups = parsed.find("memByGroupPct");
    ASSERT_NE(groups, nullptr);
    EXPECT_EQ(
        harness::fixed(groups->find("Data")->asDouble()),
        harness::fixed(
            100 * mb.byGroup[static_cast<std::size_t>(sim::ClassGroup::Data)]));
}

TEST(StatsJson, ConfigSerializesMachineParameters)
{
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    obs::Json j = obs::toJson(cfg);
    EXPECT_EQ(j.find("nprocs")->asUint(), cfg.nprocs);
    const obs::Json *levels = j.find("levels");
    ASSERT_NE(levels, nullptr);
    ASSERT_EQ(levels->size(), cfg.numLevels());
    EXPECT_EQ(levels->at(0).find("sizeBytes")->asUint(), cfg.l1().sizeBytes);
    EXPECT_EQ(levels->at(0).find("hitCycles")->asUint(), cfg.l1().hitCycles);
    EXPECT_EQ(levels->at(1).find("hitCycles")->asUint(), cfg.l2().hitCycles);
    EXPECT_EQ(j.find("l1"), nullptr) << "one level chain, no l1/l2 copies";
}
