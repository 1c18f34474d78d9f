/**
 * @file
 * Tests for the generalized N-level hierarchy (sim/hierarchy.hh) and the
 * declarative MachineSpec layer (sim/spec.hh): strict inclusion along
 * three-level chains, coherent-level evictions clearing the upper
 * levels, per-level counter reconciliation, spec JSON round-trips,
 * preset validation, rerun bit-identity — Q6 on the tiny population
 * must produce identical statistics on every rerun for both the
 * paper1997 and modern presets — and the modern preset's published
 * Q3/Q6/Q12 numbers with their registry reconciliation.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/stats_json.hh"
#include "sim/check.hh"
#include "sim/error.hh"
#include "sim/machine.hh"
#include "sim/spec.hh"
#include "tpcd/queries.hh"

namespace {

using namespace dss;
using namespace dss::sim;

/** A small three-level chain with a direct-mapped coherent level, so
 * coherent-level conflict evictions are easy to provoke while the upper
 * levels still have room. */
MachineConfig
threeLevelConfig()
{
    MachineConfig cfg = MachineConfig::baseline();
    LevelConfig l1;
    l1.sizeBytes = 128;
    l1.lineBytes = 32;
    l1.assoc = 2;
    l1.hitCycles = 1;
    LevelConfig l2;
    l2.sizeBytes = 256;
    l2.lineBytes = 64;
    l2.assoc = 4;
    l2.hitCycles = 16;
    LevelConfig l3;
    l3.sizeBytes = 256;
    l3.lineBytes = 64;
    l3.assoc = 1; // 4 sets: 0x0 and 0x100 conflict
    l3.hitCycles = 32;
    cfg.levels = {l1, l2, l3};
    cfg.nprocs = 1;
    return cfg;
}

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

TEST(Hierarchy, CoherentEvictionInvalidatesUpperLevels)
{
    Machine m(threeLevelConfig());
    // 0x0 and 0x100 share the direct-mapped L3's set 0, but the
    // 4-way L2 and 2-way L1 could hold both: only the inclusion
    // invalidation can remove 0x0 from them.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x100, DataClass::Data, 8),
    });
    (void)m.run({&t});
    EXPECT_TRUE(m.level(0, 2).contains(0x100));
    EXPECT_FALSE(m.level(0, 2).contains(0x0));
    EXPECT_FALSE(m.level(0, 1).contains(0x0)) << "L2 kept an evicted line";
    EXPECT_FALSE(m.level(0, 0).contains(0x0)) << "L1 kept an evicted line";
    // The replacement line is resident top to bottom.
    EXPECT_TRUE(m.level(0, 1).contains(0x100));
    EXPECT_TRUE(m.level(0, 0).contains(0x100));
}

TEST(Hierarchy, StrictInclusionAfterMixedTrace)
{
    MachineConfig cfg = threeLevelConfig();
    Machine m(cfg);
    TraceStream t;
    // A pseudo-random walk wide enough to force evictions at every level.
    Addr a = 0;
    for (int i = 0; i < 400; ++i) {
        a = (a * 2654435761u + 97) % 0x800;
        const Addr addr = a & ~Addr{7};
        if (i % 5 == 2)
            t.record(TraceEntry::write(addr, DataClass::Data, 8));
        else
            t.record(TraceEntry::read(addr, DataClass::Data, 8));
    }
    (void)m.run({&t});
    for (std::size_t u = 0; u + 1 < cfg.numLevels(); ++u)
        for (Addr line : m.level(0, u).residentLines())
            EXPECT_TRUE(m.level(0, u + 1).contains(line))
                << "level " << u << " line " << line
                << " missing one level down";
}

TEST(Hierarchy, PerLevelCountersReconcile)
{
    Machine m(threeLevelConfig());
    TraceStream t;
    Addr a = 0;
    for (int i = 0; i < 300; ++i) {
        a = (a * 1103515245u + 12345) % 0x600;
        t.record(TraceEntry::read(a & ~Addr{7}, DataClass::Data, 8));
    }
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.levels, 3u);
    // Every L1 read miss reaches level 1; every level-1 miss reaches the
    // coherent level; hits + misses account for each level's lookups.
    EXPECT_EQ(p.levelAccesses[1], p.l1Misses().total());
    EXPECT_EQ(p.levelHits[1] + p.levelMisses[1].total(),
              p.levelAccesses[1]);
    EXPECT_EQ(p.levelAccesses[2], p.levelMisses[1].total());
    EXPECT_EQ(p.levelHits[2] + p.levelMisses[2].total(),
              p.levelAccesses[2]);
    EXPECT_EQ(p.reads, p.levelHits[0] + p.l1Misses().total());
}

TEST(Hierarchy, IntermediateHitCostsItsLatency)
{
    Machine m(threeLevelConfig());
    // Fill set 0 of the 2-way L1 with three lines (0x0, 0x40, 0x80 all
    // map there), evicting 0x0 from the L1 only; the 4-way single-set L2
    // keeps all three. The re-read of 0x0 is then an L2 hit: 16 - 1
    // issue = 15 stall cycles beyond the three initial misses.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::read(0x80, DataClass::Data, 8),
        TraceEntry::read(0x0, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.levelHits[1], 1u);
    EXPECT_EQ(p.levelMisses[0].total(), 4u);
    EXPECT_EQ(p.levelMisses[1].total(), 3u);
    EXPECT_EQ(p.levelMisses[2].total(), 3u);
}

TEST(MachineSpec, PresetNamesAndDefault)
{
    const std::vector<std::string> names = machinePresetNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "paper1997");
    // paper1997 must be *exactly* the legacy baseline: same JSON, so the
    // golden reports cannot tell the spec layer exists.
    const MachineSpec spec = machinePreset("paper1997");
    EXPECT_EQ(obs::toJson(spec.config).dump(),
              obs::toJson(MachineConfig::baseline()).dump());
}

TEST(MachineSpec, ModernPresetIsValidThreeLevel)
{
    const MachineSpec spec = machinePreset("modern");
    EXPECT_EQ(spec.config.numLevels(), 3u);
    EXPECT_NO_THROW(spec.config.validate());
    EXPECT_NO_THROW(Machine m(spec.config));
}

TEST(MachineSpec, Scaled64PresetRuns)
{
    const MachineSpec spec = machinePreset("scaled64");
    EXPECT_EQ(spec.config.nprocs, 64u);
    Machine m(spec.config);
    std::vector<TraceStream> streams(64);
    for (unsigned p = 0; p < 64; ++p)
        streams[p].record(
            TraceEntry::read(0x1000 * p, DataClass::Data, 8));
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    SimStats s = m.run(ptrs);
    EXPECT_EQ(s.procs.size(), 64u);
}

TEST(MachineSpec, UnknownPresetThrows)
{
    EXPECT_THROW(machinePreset("fast"), SimError);
    try {
        (void)loadSpec("fast");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        // The message lists the valid presets.
        EXPECT_NE(std::string(e.what()).find("paper1997"),
                  std::string::npos);
    }
}

TEST(MachineSpec, JsonRoundTripIsLossless)
{
    // A report's "config" block is a spec document: reading it back
    // reproduces every field of every preset.
    for (const std::string &name : machinePresetNames()) {
        const MachineConfig &cfg = machinePreset(name).config;
        const obs::Json j = obs::toJson(cfg);
        const MachineSpec back = specFromJson(j, "reparsed");
        EXPECT_EQ(obs::toJson(back.config).dump(), j.dump()) << name;
        EXPECT_EQ(back.name, "reparsed");
    }
    const obs::Json named = obs::Json::parse(R"({"name": "mine"})");
    EXPECT_EQ(specFromJson(named, "file.json").name, "mine");
}

TEST(MachineSpec, LoadsSpecFileAndRejectsUnknownKeys)
{
    const std::string path = ::testing::TempDir() + "machine_spec.json";
    const auto write = [&](const std::string &text) {
        std::ofstream out(path);
        out << text;
    };
    write(obs::toJson(machinePreset("modern").config).dump(2));
    const MachineSpec spec = loadSpec(path);
    EXPECT_EQ(spec.config.numLevels(), 3u);
    EXPECT_EQ(spec.name, path);

    // A hand-written file reaches the report's config block: modern's
    // geometry with a distinctive 512 KB middle level.
    write(R"({"name": "check-file", "levels": [
        {"sizeBytes": 32768, "lineBytes": 64, "assoc": 8, "hitCycles": 1},
        {"sizeBytes": 524288, "lineBytes": 64, "assoc": 8, "hitCycles": 14},
        {"sizeBytes": 8388608, "lineBytes": 64, "assoc": 16,
         "hitCycles": 48}]})");
    const obs::Json file_cfg = obs::toJson(loadSpec(path).config);
    const obs::Json *levels = file_cfg.find("levels");
    ASSERT_NE(levels, nullptr);
    ASSERT_EQ(levels->size(), 3u);
    EXPECT_EQ(levels->at(1).find("sizeBytes")->asUint(), 524288u);

    write(R"({"nprocs": 4, "asoc": 2})"); // typo'd key
    EXPECT_THROW(loadSpec(path), SimError);

    // Settings the machine never read are unknown keys, named as such:
    // latency's old per-level hit entries (cache hit latencies live in
    // the level chain) and a level's "shared" flag.
    std::vector<std::pair<std::string, std::string>> retired;
    for (const char *level : {"l1", "l2"}) {
        const std::string key = std::string(level) + "Hit";
        retired.emplace_back(key, R"({"latency": {")" + key + R"(": 1}})");
    }
    retired.emplace_back(
        "shared", R"({"levels": [{"hitCycles": 1, "shared": true}]})");
    for (const auto &[key, text] : retired) {
        write(text);
        try {
            (void)loadSpec(path);
            ADD_FAILURE() << key << " was accepted";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown key \"" + key),
                      std::string::npos)
                << e.what();
        }
    }

    write(R"({"nprocs": 0})"); // fails validation, not parsing
    EXPECT_THROW(loadSpec(path), SimError);

    // A level 0 without hitCycles gets the 16-cycle default, which does
    // not undercut the L2's 16: rejected, not silently ignored.
    write(R"({"levels": [{"sizeBytes": 4096, "lineBytes": 32, "assoc": 1},
                         {"sizeBytes": 131072, "lineBytes": 64,
                          "assoc": 2, "hitCycles": 16}]})");
    EXPECT_THROW(loadSpec(path), SimError);
    std::remove(path.c_str());
}

TEST(MachineSpec, MissingFileThrows)
{
    EXPECT_THROW(loadSpec("/nonexistent/machine.json"), SimError);
}

/**
 * The modern preset over tiny Q3/Q6/Q12 with the invariant checker on,
 * as `fig6_time_breakdown --scale tiny --machine modern --check` runs
 * it. Per processor, the registry's level counters reconcile; the runs
 * reproduce the cycles and the Q6 miss chain EXPERIMENTS.md quotes.
 */
TEST(MachineSpec, ModernPresetReconcilesAndReproducesPublishedNumbers)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const MachineConfig cfg = machinePreset("modern").config;
    const std::pair<tpcd::QueryId, Cycles> published[] = {
        {tpcd::QueryId::Q3, 2658886},
        {tpcd::QueryId::Q6, 4240953},
        {tpcd::QueryId::Q12, 8313600},
    };
    for (const auto &[q, cycles] : published) {
        SCOPED_TRACE(tpcd::queryName(q));
        InvariantChecker checker;
        obs::Json reg;
        harness::RunOptions opts;
        opts.checker = &checker;
        opts.registrySnapshot = &reg;
        const SimStats s = harness::runCold(cfg, wl.trace(q), opts);
        // fig6's cycles column sums every processor's cycles.
        EXPECT_EQ(s.aggregate().totalCycles(), cycles);
        EXPECT_EQ(checker.totalViolations(), 0u);

        for (unsigned p = 0; p < cfg.nprocs; ++p) {
            const std::string proc = "proc" + std::to_string(p) + ".";
            const auto at = [&](const std::string &leaf) -> std::uint64_t {
                const obs::Json *v = reg.find(proc + leaf);
                EXPECT_NE(v, nullptr) << proc << leaf;
                return v ? v->asUint() : 0;
            };
            const auto misses = [&](const std::string &lvl) {
                const std::string prefix = proc + lvl + ".miss.";
                std::uint64_t n = 0;
                for (const auto &[name, value] : reg.members())
                    if (name.rfind(prefix, 0) == 0)
                        n += value.asUint();
                return n;
            };
            // Every L1 miss is an L2 lookup, and every L2 lookup
            // resolves. Atomics consult the coherence point even on an
            // upper-level hit, so the L3's hits and misses only bound
            // its lookups from below.
            EXPECT_EQ(misses("l1"), at("l2_accesses")) << proc;
            EXPECT_EQ(at("l2_hits") + misses("l2"), at("l2_accesses"))
                << proc;
            EXPECT_LE(at("l3_hits") + misses("l3"), at("l3_accesses"))
                << proc;
            if (at("l2_accesses") > 0) {
                EXPECT_GT(at("l3_accesses"), 0u) << proc;
            }
            // Inclusion: a line absent from a level is absent from every
            // level above it, so per-level misses never grow down the
            // chain.
            EXPECT_GE(misses("l1"), misses("l2")) << proc;
            EXPECT_GE(misses("l2"), misses("l3")) << proc;
        }

        if (q != tpcd::QueryId::Q6)
            continue;
        // Q6's chain is compulsory-and-coherence misses almost entirely.
        std::uint64_t miss[3] = {}, hit[3] = {};
        for (const ProcStats &ps : s.procs) {
            for (std::size_t lvl = 0; lvl < 3; ++lvl) {
                miss[lvl] += ps.levelMisses[lvl].total();
                hit[lvl] += ps.levelHits[lvl];
            }
        }
        EXPECT_EQ(miss[0], 4705u);
        EXPECT_EQ(miss[1], 4567u);
        EXPECT_EQ(miss[2], 4555u);
        EXPECT_EQ(hit[1], 138u);
        EXPECT_EQ(hit[2], 13u);
    }
}

/**
 * Rerun identity on Q6 tiny, at two levels (paper1997) and at three
 * (modern): repeat runs produce byte-identical statistics. A level-chain
 * walk that consulted any state outside the machine would break this
 * immediately.
 */
TEST(MachineSpec, FourConfigBitIdentityDifferentialQ6)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    for (const std::string &name : {std::string("paper1997"),
                                    std::string("modern")}) {
        const MachineSpec spec = machinePreset(name);
        const std::string first =
            obs::toJson(harness::runCold(spec.config, traces)).dump();
        const std::string again =
            obs::toJson(harness::runCold(spec.config, traces)).dump();
        EXPECT_EQ(first, again) << name << ": nondeterministic statistics";
    }
}

} // namespace
