/**
 * @file
 * Cross-cutting invariants of the whole pipeline, checked on real query
 * workloads: accounting identities between traces and statistics,
 * conservation laws inside the machine, and simulation determinism.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace {

using namespace dss;

class Invariants
    : public ::testing::TestWithParam<tpcd::QueryId>
{
  protected:
    static harness::Workload &
    wl()
    {
        static harness::Workload w(tpcd::ScaleConfig::tiny(), 4, 42);
        return w;
    }
};

TEST_P(Invariants, StatReadsAccountForLockRmwsAndRetries)
{
    harness::TraceSet traces = wl().trace(GetParam(), 21);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    for (unsigned p = 0; p < traces.size(); ++p) {
        auto c = traces[p].counts();
        // Every traced load is issued once; every lock acquire issues at
        // least one test&set (an exclusive read) — races add retries.
        EXPECT_GE(stats.procs[p].reads, c.reads + c.lockAcqs);
        // Every traced store and every lock release is one buffered store
        // (stores never retry).
        std::uint64_t lock_rels = 0;
        for (const sim::TraceEntry &e : traces[p].entries())
            lock_rels += e.op == sim::Op::LockRel ? 1 : 0;
        EXPECT_EQ(stats.procs[p].writes, c.writes + lock_rels);
    }
}

TEST_P(Invariants, UncontendedRunHasExactlyOneRmwPerLockAcq)
{
    // A single processor never races for a metalock: the identity with
    // the trace is exact.
    sim::TraceStream one = wl().traceOne(GetParam(), 0, 31);
    harness::TraceSet set;
    set.push_back(std::move(one));
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 1;
    sim::SimStats stats = harness::runCold(cfg, set);
    auto c = set[0].counts();
    EXPECT_EQ(stats.procs[0].reads, c.reads + c.lockAcqs);
    EXPECT_EQ(stats.procs[0].syncStall, 0u);
}

TEST_P(Invariants, CacheAccountingBalances)
{
    harness::TraceSet traces = wl().trace(GetParam(), 22);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    for (const sim::ProcStats &p : stats.procs) {
        EXPECT_EQ(p.reads, p.l1Hits() + p.l1Misses().total());
        EXPECT_EQ(p.l2Accesses(), p.l1Misses().total());
        EXPECT_EQ(p.l2Accesses(), p.l2Hits() + p.l2Misses().total());
    }
}

TEST_P(Invariants, MemStallSplitsExactlyByGroup)
{
    harness::TraceSet traces = wl().trace(GetParam(), 23);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    for (const sim::ProcStats &p : stats.procs) {
        sim::Cycles sum = 0;
        for (std::size_t g = 0; g < sim::kNumClassGroups; ++g)
            sum += p.memStallByGroup[g];
        EXPECT_EQ(sum, p.memStall);
        EXPECT_EQ(p.pmem() + p.smem(), p.memStall);
    }
}

TEST_P(Invariants, BusyEqualsTraceBusyPlusIssueCycles)
{
    harness::TraceSet traces = wl().trace(GetParam(), 24);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    for (unsigned p = 0; p < traces.size(); ++p) {
        auto c = traces[p].counts();
        // One issue cycle per issued load (including lock RMWs and their
        // retries, already folded into stats.reads) and per issued store,
        // plus the trace's explicit compute cycles. Exact by construction.
        EXPECT_EQ(stats.procs[p].busy,
                  c.busyCycles + stats.procs[p].reads +
                      stats.procs[p].writes);
    }
}

TEST_P(Invariants, SimulationIsDeterministic)
{
    harness::TraceSet traces = wl().trace(GetParam(), 25);
    sim::SimStats a =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    sim::SimStats b =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t p = 0; p < a.procs.size(); ++p) {
        EXPECT_EQ(a.procs[p].totalCycles(), b.procs[p].totalCycles());
        EXPECT_EQ(a.procs[p].memStall, b.procs[p].memStall);
        EXPECT_EQ(a.procs[p].syncStall, b.procs[p].syncStall);
        EXPECT_EQ(a.procs[p].l1Misses().total(),
                  b.procs[p].l1Misses().total());
        EXPECT_EQ(a.procs[p].l2Misses().total(),
                  b.procs[p].l2Misses().total());
    }
}

TEST_P(Invariants, BiggerCachesNeverAddL2Misses)
{
    harness::TraceSet traces = wl().trace(GetParam(), 26);
    sim::ProcStats small =
        harness::runCold(sim::MachineConfig::baseline(), traces)
            .aggregate();
    sim::ProcStats big =
        harness::runCold(sim::MachineConfig::baseline().withCacheSizes(
                             256 << 10, 8 << 20),
                         traces)
            .aggregate();
    // LRU inclusion-property caches are not strictly monotone in theory,
    // but a 64x capacity jump must not increase total L2 misses on these
    // workloads.
    EXPECT_LE(big.l2Misses().total(), small.l2Misses().total());
}

TEST_P(Invariants, ColdMissesIndependentOfCacheSize)
{
    // Cold misses count first-touches of lines: a pure function of the
    // trace and the line size, not of capacity.
    harness::TraceSet traces = wl().trace(GetParam(), 27);
    auto cold_of = [&](std::size_t l1, std::size_t l2) {
        sim::ProcStats agg =
            harness::runCold(
                sim::MachineConfig::baseline().withCacheSizes(l1, l2),
                traces)
                .aggregate();
        std::uint64_t cold = 0;
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
            cold += agg.l2Misses().of(static_cast<sim::DataClass>(c),
                                    sim::MissType::Cold);
        return cold;
    };
    EXPECT_EQ(cold_of(4 << 10, 128 << 10), cold_of(64 << 10, 2 << 20));
}

TEST(ColdMissInvariance, L2DataColdMissesIgnoreCacheSizeAndAssociativity)
{
    // EXPERIMENTS.md reads Figure 10's flat L2 Data curve and the
    // associativity ablation's flat L2 Data column as cold misses: first
    // touches of database lines, which no capacity or way count removes.
    // Sweep points as in fig10_cache_size_misses and
    // ablation_associativity.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const sim::MachineConfig base = sim::MachineConfig::baseline();
    std::vector<sim::MachineConfig> points;
    for (auto [l1, l2] : {std::pair{4 << 10, 128 << 10},
                          std::pair{16 << 10, 512 << 10},
                          std::pair{64 << 10, 2 << 20},
                          std::pair{256 << 10, 8 << 20}})
        points.push_back(base.withCacheSizes(l1, l2));
    for (auto [l1, l2] : {std::pair{1, 2}, std::pair{2, 2},
                          std::pair{4, 4}, std::pair{8, 8}}) {
        sim::MachineConfig cfg = base;
        cfg.l1().assoc = l1;
        cfg.l2().assoc = l2;
        points.push_back(cfg);
    }
    for (tpcd::QueryId q :
         {tpcd::QueryId::Q3, tpcd::QueryId::Q6, tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);
        std::vector<std::uint64_t> cold;
        for (const sim::MachineConfig &cfg : points)
            cold.push_back(harness::runCold(cfg, traces)
                               .aggregate()
                               .l2Misses()
                               .byGroupAndType(sim::ClassGroup::Data,
                                               sim::MissType::Cold));
        EXPECT_GT(cold[0], 0u) << tpcd::queryName(q);
        EXPECT_EQ(cold, std::vector<std::uint64_t>(points.size(), cold[0]))
            << tpcd::queryName(q);
    }
}

INSTANTIATE_TEST_SUITE_P(Queries, Invariants,
                         ::testing::Values(tpcd::QueryId::Q3,
                                           tpcd::QueryId::Q6,
                                           tpcd::QueryId::Q12,
                                           tpcd::QueryId::Q1,
                                           tpcd::QueryId::Q16),
                         [](const auto &info) {
                             return tpcd::queryName(info.param);
                         });

} // namespace
