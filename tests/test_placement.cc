/**
 * @file
 * Tests for the pluggable NUMA page-placement subsystem
 * (sim/placement.hh) and its wiring: the interleave policy must be
 * bit-identical to the historical hardwired home rule, first-touch
 * must resolve identically on every rerun of the same traces, the
 * class-affinity and profile policies must follow their inputs (arena
 * class map / the run's own reference counts), the published placement
 * table must reproduce, and the per-run statistics reset the placement
 * work exposed must hold.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/options.hh"
#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/stats_json.hh"
#include "sim/arena.hh"
#include "sim/directory.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"

#ifndef DSS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DSS_GOLDEN_DIR"
#endif

namespace {

using namespace dss;
using sim::Addr;
using sim::AddressSpace;
using sim::DataClass;
using sim::PlacementKind;
using sim::PlacementPolicy;
using sim::PlacementSpec;
using sim::ProcId;

PlacementPolicy::Geometry
baselineGeometry(unsigned nnodes = 4)
{
    return {nnodes, 8 * 1024};
}

/** Deterministic 64-bit LCG (no std::rand state leaking across tests). */
struct Lcg
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 11;
    }
};

// --- spec parsing --------------------------------------------------------

TEST(PlacementSpec, ParsesEveryPolicy)
{
    auto il = PlacementSpec::parse("interleave");
    ASSERT_TRUE(il);
    EXPECT_EQ(il->kind, PlacementKind::Interleave);
    EXPECT_EQ(il->str(), "interleave");

    auto ft = PlacementSpec::parse("first-touch");
    ASSERT_TRUE(ft);
    EXPECT_EQ(ft->kind, PlacementKind::FirstTouch);

    auto ca = PlacementSpec::parse("class-affinity");
    ASSERT_TRUE(ca);
    EXPECT_EQ(ca->kind, PlacementKind::ClassAffinity);
    EXPECT_FALSE(ca->node);

    auto ca2 = PlacementSpec::parse("class-affinity:2");
    ASSERT_TRUE(ca2);
    EXPECT_EQ(ca2->node, 2u);
    EXPECT_EQ(ca2->str(), "class-affinity:2");

    auto pr = PlacementSpec::parse("profile");
    ASSERT_TRUE(pr);
    EXPECT_EQ(pr->kind, PlacementKind::Profile);
    EXPECT_EQ(pr->str(), "profile");
}

TEST(PlacementSpec, RejectsMalformedValues)
{
    EXPECT_FALSE(PlacementSpec::parse("round-robin"));
    EXPECT_FALSE(PlacementSpec::parse(""));
    EXPECT_FALSE(PlacementSpec::parse("interleave:3"));
    EXPECT_FALSE(PlacementSpec::parse("first-touch:x"));
    EXPECT_FALSE(PlacementSpec::parse("class-affinity:banana"));
    EXPECT_FALSE(PlacementSpec::parse("class-affinity:99"));
    // profile counts the run's own traces: no histogram file.
    EXPECT_FALSE(PlacementSpec::parse("profile:hist.json"));
}

// --- interleave vs. the historical hardwired rule ------------------------

TEST(Placement, InterleaveMatchesLegacyRuleEverywhere)
{
    // The historical hardwired formula — the exact code every access ran
    // before the placement layer existed: shared pages interleave
    // round-robin, private addresses are homed at their owning node.
    const unsigned nnodes = 4;
    const auto legacy = [&](Addr addr) {
        if (addr >= AddressSpace::kPrivateBase) {
            auto node = static_cast<ProcId>(
                (addr - AddressSpace::kPrivateBase) /
                AddressSpace::kPrivateStride);
            return std::min<ProcId>(node, nnodes - 1);
        }
        return static_cast<ProcId>((addr / 8192) % nnodes);
    };
    auto policy = PlacementPolicy::interleave(baselineGeometry(nnodes));

    Lcg rng;
    for (int i = 0; i < 10000; ++i) {
        // Mix shared addresses (below kPrivateBase) with private ones,
        // including far past the last private node's stride.
        Addr a = rng.next() % (AddressSpace::kPrivateBase * 2);
        EXPECT_EQ(legacy(a), policy->homeOf(a)) << "addr " << a;
    }
    // The boundaries the two code paths could disagree on.
    for (Addr a : {Addr{0}, Addr{8191}, Addr{8192},
                   AddressSpace::kPrivateBase - 1,
                   AddressSpace::kPrivateBase,
                   AddressSpace::kPrivateBase +
                       AddressSpace::kPrivateStride * 7})
        EXPECT_EQ(legacy(a), policy->homeOf(a)) << "addr " << a;
}

TEST(Placement, InterleaveHandlesNonPowerOfTwoGeometry)
{
    // 3 nodes: the page index is a shift, the home a modulo that is not
    // a mask; the policy must still match idx % nnodes.
    PlacementPolicy::Geometry g{3, 8 * 1024};
    auto policy = PlacementPolicy::interleave(g);
    for (Addr a = 0; a < 30 * g.pageBytes; a += 1021)
        EXPECT_EQ(policy->homeOf(a),
                  static_cast<ProcId>((a / g.pageBytes) % g.nnodes));
}

TEST(Placement, RejectsZeroNodesAndNonPowerOfTwoPages)
{
    // validateMachineConfig rejects such pages first; the policy's own
    // check keeps a hand-built geometry from taking a wrong shift.
    for (const PlacementPolicy::Geometry g :
         {PlacementPolicy::Geometry{0, 8 * 1024},
          PlacementPolicy::Geometry{4, 0},
          PlacementPolicy::Geometry{3, 12 * 1024}})
        EXPECT_THROW(PlacementPolicy::interleave(g), std::invalid_argument)
            << g.nnodes << " nodes, " << g.pageBytes << " B pages";
}

// --- first-touch ---------------------------------------------------------

TEST(Placement, FirstTouchClaimsByTracePositionNotProcessorOrder)
{
    // Page P: proc 2 touches it at position 0, proc 0 only at position 1.
    // The claim must go to proc 2 — position-major order, not the
    // processor-id order a naive per-stream scan would produce.
    const Addr page = 5 * 8192;
    std::vector<sim::TraceStream> streams(4);
    streams[0].record(sim::TraceEntry::busy(1));
    streams[0].record(sim::TraceEntry::read(page, DataClass::Data, 8));
    streams[2].record(sim::TraceEntry::read(page + 64, DataClass::Data, 8));

    auto policy = PlacementPolicy::firstTouch(baselineGeometry());
    policy->beginRun(
        {&streams[0], &streams[1], &streams[2], &streams[3]});
    EXPECT_EQ(policy->homeOf(page), 2u);
    EXPECT_EQ(policy->claimedPages(), 1u);

    // Claims persist: a second run whose position 0 is proc 0 must not
    // steal the page (first touch *ever* wins, like a real OS).
    std::vector<sim::TraceStream> later(4);
    later[0].record(sim::TraceEntry::read(page, DataClass::Data, 8));
    policy->beginRun({&later[0], &later[1], &later[2], &later[3]});
    EXPECT_EQ(policy->homeOf(page), 2u);
}

TEST(Placement, FirstTouchRepeatsOnRerun)
{
    // Four processors with overlapping page footprints: proc p streams
    // over pages [p, p+4), so most pages have several claimants and the
    // resolution order matters.
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    std::vector<sim::TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        const Addr base = static_cast<Addr>(p) * 8192;
        for (Addr a = 0; a < 4 * 8192; a += 64) {
            streams[p].record(
                sim::TraceEntry::read(base + a, DataClass::Data, 8));
            streams[p].record(sim::TraceEntry::busy(2));
        }
    }
    std::vector<const sim::TraceStream *> ptrs;
    for (const sim::TraceStream &s : streams)
        ptrs.push_back(&s);

    struct Outcome
    {
        std::string statsJson;
        std::vector<ProcId> homes;
        std::size_t claimed;
    };
    auto runOnce = [&] {
        auto policy =
            PlacementPolicy::firstTouch({cfg.nprocs, cfg.pageBytes});
        sim::Machine m(cfg);
        m.setPlacement(policy.get());
        sim::SimStats stats = m.run(ptrs);
        Outcome o;
        o.statsJson = obs::toJson(stats).dump();
        for (std::size_t i = 0; i < policy->coveredPages(); ++i)
            o.homes.push_back(policy->homeOf(static_cast<Addr>(i) * 8192));
        o.claimed = policy->claimedPages();
        return o;
    };

    // The claim resolution must be a pure function of the traces: a
    // rerun on a fresh machine and policy reproduces the homes, the
    // claim count and the full stats.
    const Outcome first = runOnce();
    EXPECT_GT(first.claimed, 0u);
    const Outcome again = runOnce();
    EXPECT_EQ(first.homes, again.homes);
    EXPECT_EQ(first.claimed, again.claimed);
    EXPECT_EQ(first.statsJson, again.statsJson);
}

TEST(Placement, FirstTouchRepeatsOnRerunOfRealQuery)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    const PlacementPolicy::Geometry g = baselineGeometry(cfg.nprocs);

    struct Outcome
    {
        std::string statsJson;
        std::vector<ProcId> homes;
    };
    auto runOnce = [&] {
        auto policy = PlacementPolicy::firstTouch(g);
        harness::RunOptions ro;
        ro.placement = policy.get();
        sim::SimStats stats = harness::runCold(cfg, traces, ro);
        Outcome o;
        o.statsJson = obs::toJson(stats).dump();
        for (std::size_t i = 0; i < policy->coveredPages(); ++i)
            o.homes.push_back(
                policy->homeOf(static_cast<Addr>(i) * cfg.pageBytes));
        return o;
    };

    // Homes and stats repeat exactly on a rerun over the same traces.
    const Outcome first = runOnce();
    const Outcome again = runOnce();
    EXPECT_EQ(first.homes, again.homes);
    EXPECT_EQ(first.statsJson, again.statsJson);
}

// --- class-affinity ------------------------------------------------------

TEST(Placement, ClassAffinityFollowsTheArenaClassMap)
{
    // A synthetic address space: page 0 metadata, pages 1-2 data, page 3
    // index — affinity must home the metadata page at the chosen node and
    // leave the rest on the interleave rule.
    AddressSpace space(4, 64 * 1024, 4 * 1024);
    const std::size_t page = 8192;
    sim::MemArena &shared = space.shared();
    shared.alloc(page, DataClass::BufDesc);
    shared.alloc(2 * page, DataClass::Data);
    shared.alloc(page, DataClass::Index);

    const Addr base = shared.base();
    PlacementPolicy::Geometry g = baselineGeometry();
    auto policy = PlacementPolicy::classAffinity(g, space, 2);
    EXPECT_EQ(policy->homeOf(base), 2u); // metadata page -> node 2
    const auto rr = [&](Addr a) {
        return static_cast<ProcId>((a / page) % 4);
    };
    EXPECT_EQ(policy->homeOf(base + page), rr(base + page));
    EXPECT_EQ(policy->homeOf(base + 2 * page), rr(base + 2 * page));
    EXPECT_EQ(policy->homeOf(base + 3 * page), rr(base + 3 * page));
    // Unmapped shared pages report MetaOther but carry no engine
    // metadata: they stay interleaved.
    const Addr unmapped = base + 64 * page;
    EXPECT_EQ(policy->homeOf(unmapped), rr(unmapped));
}

TEST(Placement, ClassAffinityRejectsOutOfRangeNode)
{
    AddressSpace space(4, 64 * 1024, 4 * 1024);
    EXPECT_THROW(
        PlacementPolicy::classAffinity(baselineGeometry(), space, 4),
        std::invalid_argument);
}

// --- profile -------------------------------------------------------------

TEST(Placement, ProfileHomesPagesAtTheirMajorityAccessor)
{
    // Page 0: proc 1 references it three times, proc 0 once. Proc 0's
    // Busy entries (address field 0) and private reads must not count.
    // Page 2: a 2-2 tie between procs 2 and 3.
    std::vector<sim::TraceStream> streams(4);
    streams[0].record(sim::TraceEntry::read(0, DataClass::Data, 8));
    for (int i = 0; i < 3; ++i) {
        streams[0].record(sim::TraceEntry::busy(5));
        streams[0].record(sim::TraceEntry::read(
            AddressSpace::kPrivateBase + 8, DataClass::Priv, 8));
        streams[1].record(
            sim::TraceEntry::write(64 * i, DataClass::Index, 8));
    }
    for (unsigned p : {3u, 2u}) {
        streams[p].record(sim::TraceEntry::read(2 * 8192, DataClass::Data, 8));
        streams[p].record(
            sim::TraceEntry::read(2 * 8192 + 64, DataClass::Data, 8));
    }

    auto policy = PlacementPolicy::profile(baselineGeometry());
    policy->beginRun(
        {&streams[0], &streams[1], &streams[2], &streams[3]});
    EXPECT_EQ(policy->homeOf(0), 1u);
    EXPECT_EQ(policy->homeOf(2 * 8192), 2u); // tie -> lower proc id
    EXPECT_EQ(policy->homeOf(7 * 8192), 3u); // unreferenced -> interleave
    EXPECT_EQ(policy->claimedPages(), 2u);   // pages 0 and 2

    // Claims persist: a later run dominated by proc 0 claims only the
    // pages still unresolved.
    std::vector<sim::TraceStream> later(4);
    for (Addr a : {Addr{0}, Addr{4 * 8192}})
        for (int i = 0; i < 4; ++i)
            later[0].record(sim::TraceEntry::read(a, DataClass::Data, 8));
    later[1].record(sim::TraceEntry::read(4 * 8192, DataClass::Data, 8));
    policy->beginRun({&later[0], &later[1], &later[2], &later[3]});
    EXPECT_EQ(policy->homeOf(0), 1u);
    EXPECT_EQ(policy->homeOf(4 * 8192), 0u);
    EXPECT_EQ(policy->claimedPages(), 3u);
}

/**
 * EXPERIMENTS.md's "NUMA page placement" table: ablation_placement's
 * policy sweep at tiny scale, demand transactions by hop class. Pins
 * the six published rows — Q3 under every policy, Q6 and Q12 under
 * first-touch.
 */
TEST(Placement, AblationSweepReproducesThePublishedHopCounts)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    const PlacementPolicy::Geometry g = baselineGeometry(cfg.nprocs);

    struct Row
    {
        tpcd::QueryId query;
        PlacementKind kind;
        std::array<std::uint64_t, 3> hops; ///< local, 2-hop, 3-hop
    };
    const Row published[] = {
        {tpcd::QueryId::Q3, PlacementKind::Interleave, {3871, 2216, 1192}},
        {tpcd::QueryId::Q3, PlacementKind::FirstTouch, {3940, 2008, 1423}},
        {tpcd::QueryId::Q3, PlacementKind::ClassAffinity, {3863, 2223, 1257}},
        {tpcd::QueryId::Q3, PlacementKind::Profile, {4299, 2621, 482}},
        {tpcd::QueryId::Q6, PlacementKind::FirstTouch, {2750, 2768, 76}},
        {tpcd::QueryId::Q12, PlacementKind::FirstTouch, {5285, 6583, 1432}},
    };
    // Like the bench: capture each query once, in sweep order, and run
    // its rows over that one trace set.
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        const harness::TraceSet traces = wl.trace(q);
        for (const Row &row : published) {
            if (row.query != q)
                continue;
            SCOPED_TRACE(tpcd::queryName(q) + "/" +
                         sim::placementKindName(row.kind));
            PlacementSpec spec;
            spec.kind = row.kind;
            auto policy = PlacementPolicy::make(spec, g, &wl.db().space());
            harness::RunOptions ro;
            ro.placement = policy.get();
            const sim::ProcStats agg =
                harness::runCold(cfg, traces, ro).aggregate();
            for (std::size_t h = 0; h < row.hops.size(); ++h)
                EXPECT_EQ(agg.hopsOfClass(h), row.hops[h])
                    << "hop class " << h;
        }
    }
}

// --- the default must not move: golden byte-identity ---------------------

TEST(Placement, ExplicitInterleaveReproducesTheGoldenFixtureByteForByte)
{
    // Run Q3 with an explicitly attached interleave policy and compare
    // against the same checked-in fixture the no-policy golden test pins:
    // the policy layer must be invisible when the default is selected.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    auto policy = PlacementPolicy::interleave(baselineGeometry(cfg.nprocs));
    harness::RunOptions ro;
    ro.placement = policy.get();
    sim::SimStats stats = harness::runCold(cfg, traces, ro);
    const std::string actual = obs::toJson(stats).dump(2) + "\n";

    std::ifstream is(std::string(DSS_GOLDEN_DIR) + "/q3.json");
    ASSERT_TRUE(is) << "missing golden fixture q3.json";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(want.str(), actual);
}

// --- hop counters --------------------------------------------------------

TEST(Placement, SingleNodeMachineHasOnlyLocalTransactions)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 1;
    sim::TraceStream stream;
    for (Addr a = 0; a < 64 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    sim::SimStats stats = m.run({&stream});
    const sim::ProcStats agg = stats.aggregate();
    EXPECT_GT(agg.hopsTotal(), 0u);
    EXPECT_EQ(agg.hopsOfClass(0), agg.hopsTotal());
}

TEST(Placement, RemoteHomesProduceRemoteHops)
{
    // One processor streaming cold reads on a 4-node machine: 3/4 of the
    // interleaved pages are remote, so 2-hop transactions must dominate
    // and nothing can be 3-hop (no dirty third parties).
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    sim::TraceStream stream;
    for (Addr a = 0; a < 256 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    sim::SimStats stats = m.run({&stream});
    const sim::ProcStats agg = stats.aggregate();
    EXPECT_GT(agg.hopsOfClass(1), agg.hopsOfClass(0));
    EXPECT_EQ(agg.hopsOfClass(2), 0u);
}

// --- per-run statistics reset (the Fig 12 repetition bug) ----------------

TEST(Placement, MachineResetStatsClearsHomeCounters)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    sim::TraceStream stream;
    for (Addr a = 0; a < 64 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    m.run({&stream});

    std::uint64_t total = 0;
    for (const sim::Directory::HomeCounters &h :
         m.directory().homeCounters())
        total += h.requests;
    ASSERT_GT(total, 0u);

    m.resetStats();
    for (const sim::Directory::HomeCounters &h :
         m.directory().homeCounters()) {
        EXPECT_EQ(h.requests, 0u);
        EXPECT_EQ(h.queueCycles, 0u);
    }
}

TEST(Placement, RunSequenceSnapshotsCountOnlyTheLastRepetition)
{
    // Regression: the directory's per-home contention counters used to
    // accumulate across runSequence repetitions, so the registry snapshot
    // after a warm chain reported the *sum* of all repetitions. With the
    // per-run reset, the snapshot after {Q6, Q6} reflects the warm second
    // run only — which issues no more requests than the cold single run.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    auto dirRequests = [](const obs::Json &snap) {
        std::uint64_t total = 0;
        for (const auto &[key, value] : snap.members())
            if (key.rfind("dir.home", 0) == 0 &&
                key.find(".requests") != std::string::npos)
                total += value.asUint();
        return total;
    };

    obs::Json one, two;
    harness::RunOptions ro1;
    ro1.registrySnapshot = &one;
    harness::runSequence(cfg, {&traces}, ro1);

    harness::RunOptions ro2;
    ro2.registrySnapshot = &two;
    harness::runSequence(cfg, {&traces, &traces}, ro2);

    const std::uint64_t cold = dirRequests(one);
    ASSERT_GT(cold, 0u);
    // Accumulation across repetitions would make this ~2x the cold run.
    EXPECT_LE(dirRequests(two), cold);
}

// --- makePlacement (the harness glue) ------------------------------------

TEST(Placement, MakePlacementBuildsEachPolicyAndValidatesInputs)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    auto def = harness::makePlacement(PlacementSpec{}, cfg, &wl.db().space());
    EXPECT_EQ(def->kind(), PlacementKind::Interleave);

    auto ca = harness::makePlacement(*PlacementSpec::parse("class-affinity:1"),
                                     cfg, &wl.db().space());
    EXPECT_EQ(ca->kind(), PlacementKind::ClassAffinity);
    EXPECT_GT(ca->coveredPages(), 0u);

    auto pr = harness::makePlacement(*PlacementSpec::parse("profile"), cfg,
                                     &wl.db().space());
    EXPECT_EQ(pr->kind(), PlacementKind::Profile);
    EXPECT_EQ(pr->coveredPages(), 0u) << "profile resolves per run";

    // class-affinity classifies pages by the workload's arenas.
    EXPECT_THROW(harness::makePlacement(
                     *PlacementSpec::parse("class-affinity"), cfg, nullptr),
                 std::runtime_error);
}

} // namespace
