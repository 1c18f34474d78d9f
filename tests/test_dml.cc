/**
 * @file
 * Tests for the runtime DML layer (heap insert/delete, B-tree insertion
 * with splits, write locks) and the TPC-D update functions UF1/UF2.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "db/dml.hh"
#include "db_test_util.hh"
#include "tpcd/queries.hh"
#include "tpcd/updates.hh"

namespace {

using namespace dss;
using namespace dss::db;
using dss::test::CatalogFixture;

struct DmlFixture : CatalogFixture
{
    db::PrivateHeap privHeap{space, 0};

    ExecContext
    ctx()
    {
        return ExecContext{mem, catalog, privHeap, 77};
    }

    std::vector<Datum>
    row(int k)
    {
        return {Datum{static_cast<std::int64_t>(k)}, Datum{k * 1.5},
                Datum{std::string{'r', static_cast<char>('0' + k % 10)}}};
    }

    std::vector<std::vector<Datum>>
    scanAll()
    {
        ExecContext c = ctx();
        SeqScanNode scan(catalog.relation(table), nullptr);
        return runQuery(c, scan);
    }
};

TEST(Dml, InsertIsVisibleToScans)
{
    DmlFixture f;
    f.fill(10);
    ExecContext c = f.ctx();
    Tid tid = heapInsert(c, f.table, f.row(100));
    EXPECT_GE(tid.block, 0);
    auto rows = f.scanAll();
    ASSERT_EQ(rows.size(), 11u);
    EXPECT_EQ(datumInt(rows.back()[0]), 100);
    EXPECT_EQ(f.catalog.relation(f.table).numTuples, 11u);
}

TEST(Dml, InsertExtendsHeapAcrossBlocks)
{
    DmlFixture f;
    ExecContext c = f.ctx();
    for (int k = 0; k < 1000; ++k)
        heapInsert(c, f.table, f.row(k));
    EXPECT_GT(f.catalog.relation(f.table).blocks.size(), 2u);
    EXPECT_EQ(f.scanAll().size(), 1000u);
    EXPECT_EQ(countLiveTuples(c, f.table), 1000u);
}

TEST(Dml, InsertMaintainsIndices)
{
    DmlFixture f;
    f.fill(50);
    RelId idx = f.catalog.createIndex(f.mem, "t_k", f.table, 0);
    ExecContext c = f.ctx();
    Tid tid = heapInsert(c, f.table, f.row(999));
    auto hits = f.catalog.index(idx).lookupAll(f.mem, 999);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], tid);
}

TEST(Dml, DeleteTombstonesAndScansSkip)
{
    DmlFixture f;
    f.fill(20);
    ExecContext c = f.ctx();
    EXPECT_TRUE(heapDelete(c, f.table, Tid{0, 5}));
    EXPECT_FALSE(heapDelete(c, f.table, Tid{0, 5})); // already dead
    auto rows = f.scanAll();
    EXPECT_EQ(rows.size(), 19u);
    for (const auto &r : rows)
        EXPECT_NE(datumInt(r[0]), 5);
    EXPECT_EQ(countLiveTuples(c, f.table), 19u);
}

TEST(Dml, IndexScanSkipsDeletedTuples)
{
    DmlFixture f;
    f.fill(30);
    RelId idx = f.catalog.createIndex(f.mem, "t_k", f.table, 0);
    ExecContext c = f.ctx();
    heapDelete(c, f.table, Tid{0, 7}); // k == 7

    IndexScanNode scan(f.catalog.relation(f.table), f.catalog.index(idx),
                       0, 29, nullptr);
    auto rows = runQuery(c, scan);
    EXPECT_EQ(rows.size(), 29u);
    for (const auto &r : rows)
        EXPECT_NE(datumInt(r[0]), 7);
}

TEST(Dml, WriteLocksConflictWithReaders)
{
    DmlFixture f;
    ExecContext c = f.ctx();
    lockForWrite(c, f.table);
    // A concurrent reader would wait in a real system; our read-only
    // study surfaces the conflict as an error (paper scope).
    EXPECT_THROW(
        f.lockmgr.lockRelation(f.mem, 88, f.table, LockMode::Read),
        std::runtime_error);
    unlockWrite(c, f.table);
    EXPECT_TRUE(
        f.lockmgr.lockRelation(f.mem, 88, f.table, LockMode::Read));
    f.lockmgr.unlockRelation(f.mem, 88, f.table);
}

TEST(BTreeInsert, SingleInsertIntoBuiltTree)
{
    DmlFixture f;
    f.fill(100);
    RelId idx = f.catalog.createIndex(f.mem, "t_k", f.table, 0);
    BTree &tree = f.catalog.indexMut(idx);
    tree.insert(f.mem, 55, Tid{9, 9}); // duplicate of existing key 55
    EXPECT_EQ(tree.lookupAll(f.mem, 55).size(), 2u);
}

TEST(BTreeInsert, LeafSplitGrowsTree)
{
    dss::test::MemFixture base;
    db::BufferManager bm(base.mem, 2048);
    BTree tree(50, bm);
    tree.build(base.mem, {{0, Tid{0, 0}}});
    const unsigned before_pages = tree.numPages();
    // Push far past one leaf's capacity (511 entries).
    for (int k = 1; k <= 2000; ++k)
        tree.insert(base.mem, k, Tid{k / 100,
                                     static_cast<std::uint16_t>(k % 100)});
    EXPECT_GT(tree.numPages(), before_pages);
    EXPECT_GE(tree.height(), 2);
    // Every key findable; scan order sorted.
    EXPECT_EQ(tree.lookupAll(base.mem, 0).size(), 1u);
    EXPECT_EQ(tree.lookupAll(base.mem, 2000).size(), 1u);
    BTree::Cursor c = tree.begin(base.mem);
    std::int64_t k, prev = -1;
    Tid t;
    int n = 0;
    while (c.next(base.mem, k, t)) {
        EXPECT_GE(k, prev);
        prev = k;
        ++n;
    }
    EXPECT_EQ(n, 2001);
}

TEST(BTreeInsert, InsertIntoUnbuiltTreeThrows)
{
    dss::test::MemFixture base;
    db::BufferManager bm(base.mem, 64);
    BTree tree(50, bm);
    EXPECT_THROW(tree.insert(base.mem, 1, Tid{0, 0}), std::runtime_error);
}

/** Property: random interleaved inserts match a host-side reference. */
class BTreeInsertProperty : public ::testing::TestWithParam<int>
{};

TEST_P(BTreeInsertProperty, LookupMatchesReferenceAfterInserts)
{
    const int variant = GetParam();
    dss::test::MemFixture base;
    db::BufferManager bm(base.mem, 4096);
    BTree tree(50, bm);

    std::uint64_t rng = 0x1234u + variant;
    auto next = [&]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    // Start from a bulk-loaded base, then insert at runtime.
    std::vector<BTree::Entry> initial;
    const int base_n = 200 * (variant + 1);
    for (int i = 0; i < base_n; ++i)
        initial.push_back({static_cast<std::int64_t>(next() % 1000),
                           Tid{0, static_cast<std::uint16_t>(i % 100)}});
    std::stable_sort(initial.begin(), initial.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    tree.build(base.mem, initial);

    std::vector<std::int64_t> keys;
    for (const auto &e : initial)
        keys.push_back(e.first);
    for (int i = 0; i < 1500; ++i) {
        auto k = static_cast<std::int64_t>(next() % 1000);
        tree.insert(base.mem, k,
                    Tid{1, static_cast<std::uint16_t>(i % 100)});
        keys.push_back(k);
    }

    for (std::int64_t k = 0; k < 1000; k += 37) {
        std::size_t expected =
            static_cast<std::size_t>(std::count(keys.begin(), keys.end(),
                                                k));
        EXPECT_EQ(tree.lookupAll(base.mem, k).size(), expected)
            << "key " << k << " variant " << variant;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, BTreeInsertProperty,
                         ::testing::Range(0, 5));

struct UpdateFixture : ::testing::Test
{
    tpcd::TpcdDb db{tpcd::ScaleConfig::tiny(), 1, 42};
    sim::NullSink sink;
    db::TracedMemory mem{db.space(), 0, sink};
    db::PrivateHeap priv{db.space(), 0};

    ExecContext
    ctx()
    {
        return ExecContext{mem, db.catalog(), priv, 300};
    }
};

TEST_F(UpdateFixture, UF1InsertsOrdersAndLineitems)
{
    const std::uint64_t orders_before =
        db.catalog().relation(db.orders).numTuples;
    ExecContext c = ctx();
    tpcd::UpdateStats st = tpcd::runUF1(db, c, 10, 7);
    EXPECT_EQ(st.orders, 10u);
    EXPECT_GE(st.lineitems, 10u);
    EXPECT_LE(st.lineitems, 70u);
    EXPECT_EQ(db.catalog().relation(db.orders).numTuples,
              orders_before + 10);

    // New orders are reachable through the orderkey index.
    const db::BTree &idx = db.catalog().index(db.idxOrdersKey);
    auto hits = idx.lookupAll(mem, db.nextOrderKey - 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST_F(UpdateFixture, UF2DeletesLowestOrders)
{
    ExecContext c = ctx();
    const std::uint64_t before = db::countLiveTuples(c, db.orders);
    tpcd::UpdateStats st = tpcd::runUF2(db, c, 5);
    EXPECT_EQ(st.orders, 5u);
    EXPECT_GT(st.lineitems, 0u);
    EXPECT_EQ(db::countLiveTuples(c, db.orders), before - 5);

    // Orders 1..5 are gone; a scan finds no orderkey below 6.
    SeqScanNode scan(db.catalog().relation(db.orders), nullptr);
    auto rows = runQuery(c, scan);
    const Schema &s = db.catalog().relation(db.orders).schema;
    (void)s;
    for (const auto &r : rows)
        EXPECT_GT(datumInt(r[0]), 5);
}

TEST_F(UpdateFixture, UF1ThenUF2RoundTrips)
{
    ExecContext c = ctx();
    const std::uint64_t orders0 = db::countLiveTuples(c, db.orders);
    const std::uint64_t lines0 = db::countLiveTuples(c, db.lineitem);
    tpcd::UpdateStats in = tpcd::runUF1(db, c, 8, 99);
    tpcd::UpdateStats out = tpcd::runUF2(db, c, 8);
    EXPECT_EQ(in.orders, out.orders);
    EXPECT_EQ(db::countLiveTuples(c, db.orders), orders0);
    // UF2 deleted the *lowest* keys (old orders), not UF1's new ones, so
    // the lineitem count changes by (inserted - deleted).
    EXPECT_EQ(db::countLiveTuples(c, db.lineitem),
              lines0 + in.lineitems - out.lineitems);
}

TEST_F(UpdateFixture, ReadQueriesStillCorrectAfterUpdates)
{
    ExecContext c = ctx();
    tpcd::runUF1(db, c, 10, 3);
    tpcd::runUF2(db, c, 10);

    // Q6 still matches a brute-force scan of the (mutated) table.
    tpcd::Q6Params p = tpcd::Q6Params::fromSeed(5);
    NodePtr plan = tpcd::buildQ6(db, p);
    auto rows = runQuery(c, *plan);
    ASSERT_EQ(rows.size(), 1u);

    SeqScanNode scan(db.catalog().relation(db.lineitem), nullptr);
    auto li = runQuery(c, scan);
    const Schema &s = db.catalog().relation(db.lineitem).schema;
    double expected = 0;
    for (const auto &r : li) {
        auto sd = datumInt(r[s.indexOf("l_shipdate")]);
        double disc = datumReal(r[s.indexOf("l_discount")]);
        double qty = datumReal(r[s.indexOf("l_quantity")]);
        if (sd >= p.dateLo && sd < p.dateHi && disc >= p.discount - 0.011 &&
            disc <= p.discount + 0.011 && qty < p.quantity)
            expected += datumReal(r[s.indexOf("l_extendedprice")]) * disc;
    }
    EXPECT_NEAR(datumReal(rows[0][0]), expected, 1e-6);
}

TEST_F(UpdateFixture, UpdatesEmitWriteTraffic)
{
    sim::TraceStream stream;
    db::TracedMemory traced(db.space(), 0, stream);
    db::PrivateHeap ph(db.space(), 0);
    ExecContext c{traced, db.catalog(), ph, 301};
    tpcd::runUF1(db, c, 5, 11);
    auto counts = stream.counts();
    EXPECT_GT(counts.writes, 100u); // heap + index maintenance stores
    EXPECT_GT(counts.writesByClass[static_cast<int>(
                  sim::DataClass::Data)],
              0u);
    EXPECT_GT(counts.writesByClass[static_cast<int>(
                  sim::DataClass::Index)],
              0u);
    EXPECT_GT(counts.lockAcqs, 0u);
}

} // namespace
