/**
 * @file
 * Line-level memory profile: true/false-sharing classification of
 * synthetic ping-pong patterns on a small machine, conflict-miss set
 * attribution, region symbolization, the one-geometry rule, rerun
 * bit-identity, the disabled-mode guarantees (no tracker allocated, split
 * counters zero), and the reconciliation of a report_memprof-style
 * report with the machine's own counters.
 */

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "obs/memprof.hh"
#include "sim/arena.hh"
#include "sim/error.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace {

using namespace dss;

constexpr sim::Addr kLine = sim::AddressSpace::kSharedBase; // line-aligned

/** A 1 KB / 32 B direct-mapped L1 over a 4 KB / 64 B direct-mapped
 * coherent L2 (64 sets), so synthetic traces reach the coherent level
 * quickly. */
sim::MachineConfig
smallConfig(unsigned nprocs = 2)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = nprocs;
    cfg.l1().sizeBytes = 1024;
    cfg.l2().sizeBytes = 4 * 1024;
    cfg.l2().assoc = 1;
    return cfg;
}

/** Replay @p streams on a fresh small machine with a profile attached. */
obs::MemProfile
profileOf(const std::vector<sim::TraceStream> &streams)
{
    const sim::MachineConfig cfg =
        smallConfig(static_cast<unsigned>(streams.size()));
    obs::MemProfile prof(cfg);
    sim::Machine machine(cfg);
    machine.setMemProfile(&prof);
    std::vector<const sim::TraceStream *> ptrs;
    for (const sim::TraceStream &s : streams)
        ptrs.push_back(&s);
    (void)machine.run(ptrs);
    return prof;
}

/**
 * Two processors take turns on shared data: each round processor 0 runs
 * @p turn(0) and, half a round later, processor 1 runs @p turn(1). A
 * round is far longer than any miss latency, so turns never overlap and
 * every turn sees the other processor's previous turn complete.
 */
std::vector<sim::TraceStream>
takeTurns(unsigned rounds,
          const std::function<void(unsigned, sim::TraceStream &)> &turn)
{
    constexpr std::uint32_t kHalfRound = 10000;
    std::vector<sim::TraceStream> streams(2);
    streams[1].record(sim::TraceEntry::busy(kHalfRound));
    for (unsigned i = 0; i < rounds; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            turn(p, streams[p]);
            streams[p].record(sim::TraceEntry::busy(2 * kHalfRound));
        }
    return streams;
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

/** Two processors ping-ponging the SAME word: every coherence miss
 * consumes remotely-written data, so the split must be all-true. */
TEST(MemProfile, SameWordPingPongIsTrueSharing)
{
    const unsigned kRounds = 10;
    const obs::MemProfile prof =
        profileOf(takeTurns(kRounds, [](unsigned, sim::TraceStream &t) {
            t.record(sim::TraceEntry::read(kLine, sim::DataClass::Data, 8));
            t.record(
                sim::TraceEntry::write(kLine, sim::DataClass::Data, 8));
        }));

    ASSERT_EQ(prof.lines().count(kLine), 1u);
    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.reads, 2u * kRounds);
    EXPECT_EQ(rec.writes, 2u * kRounds);
    // Each processor's first read is cold. Every later read finds its copy
    // invalidated by the other processor's store, which wrote the very
    // word it reads: a true-sharing coherence miss.
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheTrue, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheFalse, 0u);
    // Every store follows the same turn's read fill, so it hits a shared
    // copy and upgrades it.
    EXPECT_EQ(rec.upgrades, 2u * kRounds);
}

/** Two processors ping-ponging DISJOINT words of one line: the misses are
 * pure line-granularity artifacts, so the split must be all-false. */
TEST(MemProfile, DisjointWordPingPongIsFalseSharing)
{
    const unsigned kRounds = 10;
    const obs::MemProfile prof = profileOf(
        takeTurns(kRounds, [](unsigned p, sim::TraceStream &t) {
            const sim::Addr word = kLine + (p == 0 ? 0 : 56);
            t.record(sim::TraceEntry::read(word, sim::DataClass::Data, 8));
            t.record(
                sim::TraceEntry::write(word, sim::DataClass::Data, 8));
        }));

    // The same miss sequence as the same-word case; only the words differ.
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
        const sim::Addr read_at = overlap ? kLine : kLine + 32;
        const obs::MemProfile prof = profileOf(
            takeTurns(kRounds, [&](unsigned p, sim::TraceStream &t) {
                if (p == 0)
                    t.record(sim::TraceEntry::write(
                        kLine, sim::DataClass::Data, 8));
                else
                    t.record(sim::TraceEntry::read(
                        read_at, sim::DataClass::Data, 8));
            }));

        const obs::LineRecord &rec = prof.lines().at(kLine);
        EXPECT_EQ(rec.reads, kRounds);
        EXPECT_EQ(rec.writes, kRounds);
        // Stores are not classified, so the reader's first read is the
        // only cold miss; each later one follows a remote store.
        EXPECT_EQ(rec.cold, 1u);
        EXPECT_EQ(overlap ? rec.coheTrue : rec.coheFalse, kRounds - 1);
        EXPECT_EQ(overlap ? rec.coheFalse : rec.coheTrue, 0u);
    }
}

/** Lock acquires count as reads (the test&set) and releases as writes,
 * exactly as ProcStats counts them. */
TEST(MemProfile, AcquiresCountAsReadsReleasesAsWrites)
{
    const unsigned kRounds = 6;
    const obs::MemProfile prof =
        profileOf(takeTurns(kRounds, [](unsigned, sim::TraceStream &t) {
            t.record(
                sim::TraceEntry::lockAcq(kLine, sim::DataClass::LockSLock));
            t.record(
                sim::TraceEntry::lockRel(kLine, sim::DataClass::LockSLock));
        }));

    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.cls, sim::DataClass::LockSLock);
    // Turns never overlap, so no acquire spins and re-issues its RMW.
    EXPECT_EQ(rec.reads, 2u * kRounds);
    EXPECT_EQ(rec.writes, 2u * kRounds);
    // Each processor's first test&set is cold; every later one finds its
    // copy invalidated by the other's test&set on the same lock word.
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheTrue, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheFalse, 0u);
}

// ------------------------------------------------------- set attribution

TEST(MemProfile, ConflictMissesAttributeToTheirSet)
{
    // A stride of 4 KB maps every address to the same set of both the
    // 1 KB L1 and the 4 KB direct-mapped L2: each read evicts the last.
    const unsigned kRounds = 5;
    std::vector<sim::TraceStream> streams(1);
    for (unsigned i = 0; i < kRounds; ++i)
        for (unsigned k = 0; k < 3; ++k)
            streams[0].record(sim::TraceEntry::read(
                kLine + k * 4096, sim::DataClass::Data, 8));
    const obs::MemProfile prof = profileOf(streams);

    // Three cold misses, then every read is a conflict miss in one set.
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
    const sim::Addr unmapped = kLine + 4096;
    const obs::MemProfile prof =
        profileOf(takeTurns(4, [&](unsigned, sim::TraceStream &t) {
            t.record(sim::TraceEntry::read(
                kLine, sim::DataClass::LockSLock, 8));
            t.record(sim::TraceEntry::write(
                kLine, sim::DataClass::LockSLock, 8));
            t.record(sim::TraceEntry::read(
                unmapped, sim::DataClass::LockHash, 8));
        }));

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

// ------------------------------------------------------------ geometry

/** One profile describes one coherent-level geometry. */
TEST(MemProfile, AttachingToADifferentGeometryThrows)
{
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    obs::MemProfile prof(cfg);

    sim::Machine wider_lines(cfg.withLineSize(128));
    EXPECT_THROW(wider_lines.setMemProfile(&prof), sim::SimError);
    sim::Machine more_sets(cfg.withCacheSizes(
        cfg.l1().sizeBytes, 2 * cfg.coherent().sizeBytes));
    EXPECT_THROW(more_sets.setMemProfile(&prof), sim::SimError);
    EXPECT_EQ(more_sets.sharingTracker(), nullptr);

    // The same geometry attaches, and detaching drops the tracker.
    sim::Machine same(cfg);
    same.setMemProfile(&prof);
    EXPECT_NE(same.sharingTracker(), nullptr);
    same.setMemProfile(nullptr);
    EXPECT_EQ(same.sharingTracker(), nullptr);
}

// --------------------------------------------------- workload determinism

/** The profile JSON is byte-identical on every rerun of the same
 * configuration over the same traces. */
TEST(MemProfile, ProfileRepeatsBitForBitOnRerun)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::RegionMap symbols;
    wl.db().catalog().describeRegions(symbols);
    ASSERT_GT(symbols.size(), 0u);

    std::string first;
    for (int rerun = 0; rerun < 2; ++rerun) {
        obs::MemProfile prof(cfg);
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

/** With a profile attached, the machine's own split reconciles exactly:
 * per proc, l2CoheTrue + l2CoheFalse == the Cohe column of l2Misses. */
TEST(MemProfile, MachineSplitReconcilesWithCoherenceMisses)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    obs::MemProfile prof(cfg);
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

/**
 * The report report_memprof writes — tiny Q3/Q6/Q12, one profile per
 * query plus a registry snapshot of each run — has the full profile
 * schema, and every profile total with a machine counterpart equals it.
 */
TEST(MemProfile, ReportReconcilesWithMachineCounters)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    obs::RegionMap symbols;
    wl.db().catalog().describeRegions(symbols);

    const std::vector<std::string> fields = {
        "accesses", "reads",     "writes",   "cold", "conf",
        "coheTrue", "coheFalse", "upgrades", "hop3"};
    auto field = [](const obs::Json &rec, const std::string &key) {
        const obs::Json *v = rec.find(key);
        EXPECT_NE(v, nullptr) << "record lacks '" << key << "'";
        return v ? v->asUint() : 0;
    };

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        SCOPED_TRACE(tpcd::queryName(q));
        obs::MemProfile prof(cfg);
        obs::Json counters;
        harness::RunOptions ro;
        ro.memProfile = &prof;
        ro.registrySnapshot = &counters;
        const sim::SimStats stats = harness::runCold(cfg, wl.trace(q), ro);
        const obs::Json doc = prof.toJson(20, &symbols);

        for (const char *key : {"lineBytes", "nprocs", "linesTracked",
                                "lines", "classes", "sets", "totals"})
            ASSERT_NE(doc.find(key), nullptr) << "profile lacks " << key;
        const obs::Json &lines = *doc.find("lines");
        EXPECT_GT(lines.size(), 0u);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            for (const char *key : {"addr", "symbol", "class"})
                EXPECT_NE(lines.at(i).find(key), nullptr) << key;
            for (const std::string &f : fields)
                (void)field(lines.at(i), f);
        }
        const obs::Json &sets = *doc.find("sets");
        for (std::size_t i = 0; i < sets.size(); ++i) {
            EXPECT_NE(sets.at(i).find("set"), nullptr);
            EXPECT_NE(sets.at(i).find("conf"), nullptr);
        }

        // Per-class rows sum to the totals row.
        const obs::Json &totals = *doc.find("totals");
        for (const std::string &f : fields) {
            std::uint64_t summed = 0;
            for (const auto &[cls, rec] : doc.find("classes")->members())
                summed += field(rec, f);
            EXPECT_EQ(summed, field(totals, f)) << f;
        }

        // Machine identities: reads/writes, the coherent-level miss table
        // per class, the coherence split and the 3-hop transactions.
        const sim::ProcStats all = stats.aggregate();
        EXPECT_EQ(field(totals, "reads"), all.reads);
        EXPECT_EQ(field(totals, "writes"), all.writes);
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
            const auto cls = static_cast<sim::DataClass>(c);
            const obs::Json *rec = doc.find("classes")->find(
                std::string(sim::dataClassName(cls)));
            auto of = [&](const std::string &f) {
                return rec ? field(*rec, f) : std::uint64_t{0};
            };
            const sim::MissTable &m = all.cohMisses();
            EXPECT_EQ(of("cold"), m.of(cls, sim::MissType::Cold)) << c;
            EXPECT_EQ(of("conf"), m.of(cls, sim::MissType::Conf)) << c;
            EXPECT_EQ(of("coheTrue") + of("coheFalse"),
                      m.of(cls, sim::MissType::Cohe))
                << c;
        }
        std::uint64_t cohe_true = 0, cohe_false = 0, hop3 = 0;
        for (const auto &[name, value] : counters.members()) {
            const auto ends = [&](const std::string &tail) {
                return name.size() > tail.size() &&
                       name.compare(name.size() - tail.size(),
                                    tail.size(), tail) == 0;
            };
            if (ends(".miss.cohe.true"))
                cohe_true += value.asUint();
            else if (ends(".miss.cohe.false"))
                cohe_false += value.asUint();
            else if (name.find(".hops.") != std::string::npos &&
                     ends(".hop3"))
                hop3 += value.asUint();
        }
        EXPECT_EQ(field(totals, "coheTrue"), cohe_true);
        EXPECT_EQ(field(totals, "coheFalse"), cohe_false);
        EXPECT_EQ(field(totals, "hop3"), hop3);
        EXPECT_GT(hop3, 0u);

        // Per processor: the registry's split adds up to its cohe count.
        for (std::size_t p = 0; p < stats.procs.size(); ++p) {
            const std::string proc = "proc" + std::to_string(p);
            EXPECT_EQ(counters.find(proc + ".miss.cohe")->asUint(),
                      counters.find(proc + ".miss.cohe.true")->asUint() +
                          counters.find(proc + ".miss.cohe.false")->asUint())
                << proc;
        }

        // Conflict misses by set add up to the conflict total.
        std::uint64_t by_set = 0;
        for (std::size_t set = 0; set < prof.numSets(); ++set)
            by_set += prof.confOfSet(set);
        EXPECT_EQ(by_set, field(totals, "conf"));
    }
}

// ------------------------------------------------------------- disabled

/** Without a profile the machine must not even allocate the tracker,
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

} // namespace
