/**
 * @file
 * Unit tests for the flat line-state table (sim/line_table.hh) and its
 * two users: the caches' miss-classification history and the
 * directory's entries. The differential test drives a Cache against a
 * std::set model of the classification rules (Cold: never loaded; Cohe:
 * last removed by coherence; Conf: otherwise).
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/arena.hh"
#include "sim/cache.hh"
#include "sim/directory.hh"
#include "sim/line_table.hh"

namespace {

using namespace dss::sim;

/** The address spaces one replay touches, far apart in one table. */
const std::vector<Addr> kFarKeys = {
    0x40,                              // low shared line
    0x1000'0000,                       // shared segment
    (Addr{1} << 38) - 64,              // a lock word near 2^38
    AddressSpace::kPrivateBase + 0x40, // a node's private segment
    0x43'0000'0000,
};

TEST(LineTable, KeysFarApartShareOneTable)
{
    LineTable<std::uint32_t> t(64);
    for (std::size_t i = 0; i < kFarKeys.size(); ++i)
        t.get(kFarKeys[i]) = static_cast<std::uint32_t>(i + 1);
    EXPECT_EQ(t.size(), kFarKeys.size());
    for (std::size_t i = 0; i < kFarKeys.size(); ++i) {
        const std::uint32_t *v = t.find(kFarKeys[i]);
        ASSERT_NE(v, nullptr) << std::hex << kFarKeys[i];
        EXPECT_EQ(*v, i + 1);
        EXPECT_EQ(t.find(kFarKeys[i] + 64), nullptr); // the next line
    }
    EXPECT_EQ(t.find(0x80), nullptr);
    EXPECT_EQ(t.find(~Addr{0}), nullptr);
    t.get(~Addr{0}) = 9; // the top line of the address space too
    EXPECT_EQ(*t.find(~Addr{63}), 9u);
}

TEST(LineTable, SizeCountsDistinctLines)
{
    LineTable<std::uint8_t> t(64);
    EXPECT_EQ(t.size(), 0u);
    t.get(0x40);
    t.get(0x44); // same line
    t.get(0x7f); // same line
    EXPECT_EQ(t.size(), 1u);
    t.get(0x80); // same page, next line
    t.get(0x10'0000);
    EXPECT_EQ(t.size(), 3u);
    // Lookups never create lines.
    EXPECT_EQ(t.find(0xc0), nullptr);
    EXPECT_EQ(t.size(), 3u);
    // A new value defaults to V{} and the line size sets the granule.
    LineTable<std::uint8_t> wide(128);
    EXPECT_EQ(wide.get(0x40), 0u);
    wide.get(0x7f) = 5;
    EXPECT_EQ(*wide.find(0x00), 5u);
    EXPECT_EQ(wide.size(), 1u);
}

TEST(LineTable, ClearEmptiesAndReusesStorage)
{
    LineTable<std::uint64_t> t(32);
    t.get(0x1000) = 7;
    for (const Addr a : kFarKeys)
        t.get(a) = 1;
    const std::uint64_t *first = t.find(0x1000); // after the last growth
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0x1000), nullptr);
    for (const Addr a : kFarKeys)
        EXPECT_EQ(t.find(a), nullptr);
    EXPECT_TRUE(t.sorted().empty());
    // The first page touched after clear() lands in the first page
    // slot again, value reset.
    std::uint64_t *again = &t.get(0x1000);
    EXPECT_EQ(again, first);
    EXPECT_EQ(*again, 0u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LineTable, ClearForgetsEveryPageAcrossProbeCollisions)
{
    // Enough pages to grow the page map several times and form probe
    // runs. Each round keeps half the previous round's lines, so pages
    // recur after clear(): a slot clear() missed would send their
    // lookups to a stale page.
    std::mt19937_64 rng(7);
    LineTable<std::uint16_t> t(64);
    std::vector<Addr> prev;
    for (int round = 1; round <= 4; ++round) {
        std::set<Addr> lines;
        for (std::size_t k = 0; k < prev.size(); k += 2)
            lines.insert(prev[k]);
        while (lines.size() < 3000)
            lines.insert((rng() % (Addr{1} << 40)) & ~Addr{63});
        for (const Addr a : lines)
            t.get(a) = static_cast<std::uint16_t>(round);
        ASSERT_EQ(t.size(), lines.size());
        for (const Addr a : lines) {
            const std::uint16_t *v = t.find(a);
            ASSERT_NE(v, nullptr) << "round " << round;
            ASSERT_EQ(*v, round);
        }
        for (const Addr a : prev) {
            if (!lines.count(a)) {
                ASSERT_EQ(t.find(a), nullptr) << "round " << round;
            }
        }
        prev.assign(lines.begin(), lines.end());
        t.clear();
        for (const Addr a : prev)
            ASSERT_EQ(t.find(a), nullptr) << "round " << round;
    }
}

TEST(LineTable, SortedWalkIgnoresInsertionOrder)
{
    std::vector<Addr> keys = kFarKeys;
    for (Addr a = 0x2000; a < 0x2000 + 200 * 64; a += 3 * 64)
        keys.push_back(a);
    std::mt19937_64 rng(11);
    std::vector<std::pair<Addr, std::uint64_t>> first;
    for (int trial = 0; trial < 3; ++trial) {
        std::shuffle(keys.begin(), keys.end(), rng);
        LineTable<std::uint64_t> t(64);
        for (const Addr a : keys)
            t.get(a + 5) = a >> 6;
        const auto walk = t.sorted();
        ASSERT_EQ(walk.size(), keys.size());
        for (std::size_t i = 0; i < walk.size(); ++i) {
            EXPECT_EQ(walk[i].first % 64, 0u); // line addresses
            EXPECT_EQ(walk[i].second, walk[i].first >> 6);
            if (i > 0) {
                EXPECT_LT(walk[i - 1].first, walk[i].first);
            }
        }
        if (trial == 0) {
            first = walk;
        } else {
            EXPECT_EQ(walk, first);
        }
    }
}

TEST(LineTable, CacheHistoryMatchesSetOracle)
{
    // A small 2-way cache over a pool spanning far-apart regions, so
    // lines conflict, evict and return. The oracle keeps the rules in
    // their plain form: ever-loaded and removed-by-coherence sets.
    std::mt19937_64 rng(1997);
    Cache c({1024, 32, 2});
    std::set<Addr> ever;
    std::set<Addr> cohRemoved;
    std::vector<Addr> pool;
    for (const Addr base : kFarKeys)
        for (Addr i = 0; i < 48; ++i)
            pool.push_back(base + i * 32);
    auto expected = [&](Addr la) {
        if (!ever.count(la))
            return MissType::Cold;
        return cohRemoved.count(la) ? MissType::Cohe : MissType::Conf;
    };
    for (int step = 0; step < 200'000; ++step) {
        const Addr a = pool[rng() % pool.size()] + rng() % 32;
        const Addr la = c.lineAddrOf(a);
        ASSERT_EQ(c.classifyMiss(a), expected(la)) << "step " << step;
        const unsigned op = static_cast<unsigned>(rng() % 100);
        if (op < 60) {
            if (!c.access(a)) {
                c.fill(a); // the victim's history stays as it was
                ever.insert(la);
                cohRemoved.erase(la);
            }
        } else if (op < 85) {
            const bool coherence = op < 75;
            if (c.invalidate(a, coherence) && coherence)
                cohRemoved.insert(la);
        } else if (op < 99) {
            c.clearCoherenceMark(a);
            cohRemoved.erase(la);
        } else {
            c.reset();
            ever.clear();
            cohRemoved.clear();
        }
    }
    for (const Addr a : pool)
        EXPECT_EQ(c.classifyMiss(a), expected(a));
}

TEST(LineTable, DirectoryTracksEntriesNotPeeks)
{
    // trackedLines() is the dir.tracked_lines gauge of every JSON
    // report (BENCH_baseline.json among them): lines entry() touched,
    // never lines only peek()ed.
    Directory dir(4, 64, LatencyConfig{});
    EXPECT_EQ(dir.trackedLines(), 0u);
    EXPECT_EQ(dir.peek(0x40), nullptr);
    EXPECT_EQ(dir.peek(0x1000'0000), nullptr);
    EXPECT_EQ(dir.trackedLines(), 0u);
    dir.entry(0x40).state = Directory::State::Shared;
    dir.entry(0x7f).sharers = 0b10; // same line
    dir.entry(0x43'0000'0000);      // left Uncached: still tracked
    EXPECT_EQ(dir.trackedLines(), 2u);
    EXPECT_EQ(dir.peek(0x80), nullptr);
    EXPECT_EQ(dir.trackedLines(), 2u);
    ASSERT_NE(dir.peek(0x44), nullptr);
    EXPECT_EQ(dir.peek(0x44)->sharers, 0b10u);
    const auto all = dir.sortedEntries();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].first, 0x40u);
    EXPECT_EQ(all[1].first, 0x43'0000'0000u);
    EXPECT_EQ(all[1].second, Directory::Entry{});
    dir.reset();
    EXPECT_EQ(dir.trackedLines(), 0u);
    EXPECT_EQ(dir.peek(0x40), nullptr);
}

} // namespace
