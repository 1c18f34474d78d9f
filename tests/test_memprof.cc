/**
 * @file
 * Line-level memory profiler: true/false-sharing classification of
 * synthetic ping-pong patterns, conflict-miss set attribution, region
 * symbolization, rerun bit-identity of the profile, and the
 * disabled-mode guarantees (no tracker allocated, split counters zero).
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "obs/memprof.hh"
#include "sim/arena.hh"
#include "sim/machine.hh"
#include "sim/sharing.hh"
#include "sim/trace.hh"

namespace {

using namespace dss;

constexpr sim::Addr kLine = sim::AddressSpace::kSharedBase; // line-aligned

obs::MemProfileConfig
smallConfig(unsigned nprocs = 2)
{
    obs::MemProfileConfig cfg;
    cfg.l2 = {4 * 1024, 64, 1};
    cfg.nprocs = nprocs;
    return cfg;
}

std::vector<const sim::TraceStream *>
ptrs(const std::vector<sim::TraceStream> &streams)
{
    std::vector<const sim::TraceStream *> out;
    for (const sim::TraceStream &s : streams)
        out.push_back(&s);
    return out;
}

// ------------------------------------------------------------ region map

TEST(RegionMap, ResolvesFlatAndIndexedRegions)
{
    obs::RegionMap map;
    map.add(0x1000, 64, "BufMgrLock");
    map.addIndexed(0x2000, 4, 32, "buf descriptor");

    EXPECT_EQ(map.resolve(0x1000), "BufMgrLock");
    EXPECT_EQ(map.resolve(0x103f), "BufMgrLock");
    EXPECT_EQ(map.resolve(0x1040), ""); // one past the end
    EXPECT_EQ(map.resolve(0x2000), "buf descriptor 0");
    EXPECT_EQ(map.resolve(0x2025), "buf descriptor 1");
    EXPECT_EQ(map.resolve(0x207f), "buf descriptor 3");
    EXPECT_EQ(map.resolve(0x0), "");
    EXPECT_EQ(map.size(), 2u);
}

TEST(RegionMap, RejectsOverlappingRegions)
{
    obs::RegionMap map;
    map.add(0x1000, 64, "a");
    EXPECT_THROW(map.add(0x1020, 64, "b"), std::invalid_argument);
    EXPECT_THROW(map.add(0x0fff, 2, "c"), std::invalid_argument);
    EXPECT_THROW(map.add(0x1000, 0, "empty"), std::invalid_argument);
    map.add(0x1040, 64, "adjacent is fine");
    EXPECT_EQ(map.size(), 2u);
}

// --------------------------------------------- true / false classification

/** Two writers ping-ponging the SAME word: every coherence miss consumes
 * remotely-written data, so the split must be all-true. */
TEST(MemProfile, SameWordPingPongIsTrueSharing)
{
    obs::MemProfile prof(smallConfig());
    const unsigned kRounds = 10;
    std::vector<sim::TraceStream> streams(2);
    for (unsigned i = 0; i < kRounds; ++i)
        for (unsigned p = 0; p < 2; ++p)
            streams[p].record(
                sim::TraceEntry::write(kLine, sim::DataClass::Data, 8));
    prof.addTraces(ptrs(streams));

    ASSERT_EQ(prof.lines().count(kLine), 1u);
    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.writes, 2u * kRounds);
    // First touch of each model cache is cold; after that every write
    // misses on the other writer's invalidation and reads back the very
    // word it dirtied.
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheTrue, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheFalse, 0u);
}

/** Two writers ping-ponging DISJOINT words of one line: the misses are
 * pure line-granularity artifacts, so the split must be all-false. */
TEST(MemProfile, DisjointWordPingPongIsFalseSharing)
{
    obs::MemProfile prof(smallConfig());
    const unsigned kRounds = 10;
    std::vector<sim::TraceStream> streams(2);
    for (unsigned i = 0; i < kRounds; ++i) {
        streams[0].record(
            sim::TraceEntry::write(kLine, sim::DataClass::Data, 8));
        streams[1].record(
            sim::TraceEntry::write(kLine + 56, sim::DataClass::Data, 8));
    }
    prof.addTraces(ptrs(streams));

    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheFalse, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheTrue, 0u);
}

/** A reader chasing a writer: reads of the written word are true sharing,
 * reads of a different word in the same line are false sharing. */
TEST(MemProfile, ReaderClassifiesByWordOverlap)
{
    const unsigned kRounds = 8;
    for (bool overlap : {true, false}) {
        obs::MemProfile prof(smallConfig());
        std::vector<sim::TraceStream> streams(2);
        const sim::Addr read_at = overlap ? kLine : kLine + 32;
        for (unsigned i = 0; i < kRounds; ++i) {
            streams[0].record(
                sim::TraceEntry::write(kLine, sim::DataClass::Data, 8));
            streams[1].record(
                sim::TraceEntry::read(read_at, sim::DataClass::Data, 8));
        }
        prof.addTraces(ptrs(streams));

        const obs::LineRecord &rec = prof.lines().at(kLine);
        EXPECT_EQ(rec.reads, kRounds);
        EXPECT_EQ(rec.writes, kRounds);
        if (overlap) {
            EXPECT_GT(rec.coheTrue, 0u);
            EXPECT_EQ(rec.coheFalse, 0u);
        } else {
            EXPECT_EQ(rec.coheTrue, 0u);
            EXPECT_GT(rec.coheFalse, 0u);
        }
    }
}

/** Lock acquire/release trace entries replay as stores and classify. */
TEST(MemProfile, LockOpsCountAsWrites)
{
    obs::MemProfile prof(smallConfig());
    std::vector<sim::TraceStream> streams(2);
    for (unsigned i = 0; i < 6; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            streams[p].record(
                sim::TraceEntry::lockAcq(kLine, sim::DataClass::LockSLock));
            streams[p].record(
                sim::TraceEntry::lockRel(kLine, sim::DataClass::LockSLock));
        }
    prof.addTraces(ptrs(streams));

    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.cls, sim::DataClass::LockSLock);
    EXPECT_EQ(rec.writes, 24u);
    EXPECT_EQ(rec.reads, 0u);
    EXPECT_GT(rec.coheTrue, 0u); // lock word: same-word ping-pong
    EXPECT_EQ(rec.coheFalse, 0u);
}

// ------------------------------------------------------- set attribution

TEST(MemProfile, ConflictMissesAttributeToTheirSet)
{
    // 4 KB direct-mapped, 64 B lines -> 64 sets; a stride of 4 KB maps
    // every address to the same set.
    obs::MemProfile prof(smallConfig(1));
    const unsigned kRounds = 5;
    std::vector<sim::TraceStream> streams(1);
    for (unsigned i = 0; i < kRounds; ++i)
        for (unsigned k = 0; k < 3; ++k)
            streams[0].record(sim::TraceEntry::read(
                kLine + k * 4096, sim::DataClass::Data, 8));
    prof.addTraces(ptrs(streams));

    const std::size_t set = (kLine / 64) % 64;
    obs::LineRecord tot = prof.totals();
    EXPECT_EQ(tot.cold, 3u);
    EXPECT_EQ(tot.conf, 3u * kRounds - 3);
    EXPECT_EQ(prof.confOfSet(set), tot.conf);

    obs::Json doc = prof.toJson(4);
    const obs::Json *sets = doc.find("sets");
    ASSERT_NE(sets, nullptr);
    ASSERT_GE(sets->size(), 1u);
    EXPECT_EQ(sets->at(0).find("set")->asUint(), set);
    EXPECT_EQ(sets->at(0).find("conf")->asUint(), tot.conf);
}

// --------------------------------------------------------- symbolization

TEST(MemProfile, SymbolizesThroughRegionMapWithClassFallback)
{
    obs::MemProfile prof(smallConfig());
    std::vector<sim::TraceStream> streams(2);
    const sim::Addr unmapped = kLine + 4096;
    for (unsigned i = 0; i < 4; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            streams[p].record(sim::TraceEntry::write(
                kLine, sim::DataClass::LockSLock, 8));
            streams[p].record(sim::TraceEntry::write(
                unmapped, sim::DataClass::LockHash, 8));
        }
    prof.addTraces(ptrs(streams));

    obs::RegionMap symbols;
    symbols.add(kLine, 64, "LockMgrLock");

    obs::Json doc = prof.toJson(10, &symbols);
    const obs::Json *lines = doc.find("lines");
    ASSERT_NE(lines, nullptr);
    bool saw_symbol = false, saw_fallback = false;
    for (std::size_t i = 0; i < lines->size(); ++i) {
        const obs::Json &rec = lines->at(i);
        if (rec.find("addr")->asUint() == kLine) {
            EXPECT_EQ(rec.find("symbol")->asString(), "LockMgrLock");
            saw_symbol = true;
        }
        if (rec.find("addr")->asUint() == unmapped) {
            // No region covers it: falls back to the data-class name.
            EXPECT_EQ(rec.find("symbol")->asString(),
                      sim::dataClassName(sim::DataClass::LockHash));
            saw_fallback = true;
        }
    }
    EXPECT_TRUE(saw_symbol);
    EXPECT_TRUE(saw_fallback);
}

// --------------------------------------------------- workload determinism

/** The profile is a pure function of the traces: the JSON must be
 * byte-identical on every rerun over the same traces. */
TEST(MemProfile, ProfileBitIdenticalAcrossEnginesAndThreads)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::MemProfileConfig mc;
    mc.l2 = cfg.coherent();
    mc.nprocs = cfg.nprocs;
    mc.pageBytes = cfg.pageBytes;

    obs::RegionMap symbols;
    wl.db().catalog().describeRegions(symbols);
    ASSERT_GT(symbols.size(), 0u);

    std::string first;
    for (int rerun = 0; rerun < 2; ++rerun) {
        obs::MemProfile prof(mc);
        harness::RunOptions ro;
        ro.memProfile = &prof;
        (void)harness::runCold(cfg, traces, ro);
        const std::string dump = prof.toJson(20, &symbols).dump();
        if (first.empty())
            first = dump;
        else
            EXPECT_EQ(dump, first);
    }
    EXPECT_FALSE(first.empty());
}

/** With sharing enabled, the machine's own split reconciles exactly:
 * per proc, l2CoheTrue + l2CoheFalse == the Cohe column of l2Misses. */
TEST(MemProfile, MachineSplitReconcilesWithCoherenceMisses)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    obs::MemProfile prof({cfg.coherent(), cfg.nprocs, cfg.pageBytes});
    harness::RunOptions ro;
    ro.memProfile = &prof;
    obs::Json snapshot;
    ro.registrySnapshot = &snapshot;
    sim::SimStats stats = harness::runCold(cfg, traces, ro);

    std::uint64_t total_cohe = 0;
    for (std::size_t p = 0; p < stats.procs.size(); ++p) {
        const sim::ProcStats &st = stats.procs[p];
        std::uint64_t cohe = 0;
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
            cohe += st.l2Misses().of(static_cast<sim::DataClass>(c),
                                   sim::MissType::Cohe);
        EXPECT_EQ(st.l2CoheTrue + st.l2CoheFalse, cohe) << "proc " << p;
        total_cohe += cohe;

        const std::string prefix = "proc" + std::to_string(p);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe")->asUint(), cohe);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe.true")->asUint(),
                  st.l2CoheTrue);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe.false")->asUint(),
                  st.l2CoheFalse);
    }
    EXPECT_GT(total_cohe, 0u); // Q3 on 4 procs does share
}

// ------------------------------------------------------------- disabled

/** Without a profiler the machine must not even allocate the tracker,
 * and the split counters stay zero while plain cohe counts flow. */
TEST(MemProfile, DisabledMachineAllocatesNoTrackerAndSplitsNothing)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    sim::Machine machine(cfg);
    EXPECT_EQ(machine.sharingTracker(), nullptr);
    sim::SimStats stats = machine.run(harness::tracePtrs(traces));
    EXPECT_EQ(machine.sharingTracker(), nullptr);

    std::uint64_t cohe = 0;
    for (const sim::ProcStats &st : stats.procs) {
        EXPECT_EQ(st.l2CoheTrue, 0u);
        EXPECT_EQ(st.l2CoheFalse, 0u);
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
            cohe += st.l2Misses().of(static_cast<sim::DataClass>(c),
                                   sim::MissType::Cohe);
    }
    EXPECT_GT(cohe, 0u); // the misses themselves still happen
}

// ------------------------------------------------------------ api misuse

TEST(MemProfile, RejectsBadProcessorCounts)
{
    obs::MemProfileConfig cfg = smallConfig();
    cfg.nprocs = 0;
    EXPECT_THROW(obs::MemProfile{cfg}, std::invalid_argument);
    cfg.nprocs = sim::SharingTracker::kMaxProcs + 1;
    EXPECT_THROW(obs::MemProfile{cfg}, std::invalid_argument);

    obs::MemProfile prof(smallConfig(1));
    std::vector<sim::TraceStream> streams(2);
    EXPECT_THROW(prof.addTraces(ptrs(streams)), std::invalid_argument);
}

} // namespace
