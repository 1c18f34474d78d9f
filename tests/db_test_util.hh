/**
 * @file
 * Shared fixtures for DB-layer tests: an address space with a recording
 * TracedMemory, and a small hand-built catalog.
 */

#ifndef DSS_TESTS_DB_TEST_UTIL_HH
#define DSS_TESTS_DB_TEST_UTIL_HH

#include <memory>

#include "db/bufmgr.hh"
#include "db/catalog.hh"
#include "db/exec.hh"
#include "db/lockmgr.hh"
#include "db/mem.hh"

namespace dss {
namespace test {

/** One simulated process over a fresh address space, trace recorded. */
struct MemFixture
{
    sim::AddressSpace space{2, 16 << 20, 16 << 20};
    sim::TraceStream stream;
    db::TracedMemory mem{space, 0, stream};

    /** Count trace events of one op. */
    std::size_t
    countOps(sim::Op op) const
    {
        std::size_t n = 0;
        for (const sim::TraceEntry &e : stream.entries())
            if (e.op == op)
                ++n;
        return n;
    }

    /** Count trace events of one op and class. */
    std::size_t
    countOps(sim::Op op, sim::DataClass cls) const
    {
        std::size_t n = 0;
        for (const sim::TraceEntry &e : stream.entries())
            if (e.op == op && e.cls == cls)
                ++n;
        return n;
    }
};

/** A catalog with one small "t" table: {k Int32, v Double, s Char(8)}. */
struct CatalogFixture : MemFixture
{
    db::BufferManager bufmgr{mem, 256};
    db::LockManager lockmgr{mem, 64, 256};
    db::Catalog catalog{bufmgr, lockmgr};
    db::RelId table = 0;

    CatalogFixture()
    {
        db::Schema s;
        s.add("k", db::AttrType::Int32)
            .add("v", db::AttrType::Double)
            .add("s", db::AttrType::Char, 8);
        table = catalog.createTable(mem, "t", s);
    }

    /** Insert (k, v, s) rows k = 0..n-1, v = k * 1.5, s = "r<k%10>". */
    void
    fill(int n)
    {
        for (int k = 0; k < n; ++k) {
            catalog.insert(mem, table,
                           {db::Datum{static_cast<std::int64_t>(k)},
                            db::Datum{k * 1.5},
                            db::Datum{std::string{
                                'r', static_cast<char>('0' + k % 10)}}});
        }
    }

    db::PrivateHeap
    heap()
    {
        return db::PrivateHeap(space, 0);
    }
};

} // namespace test
} // namespace dss

#endif // DSS_TESTS_DB_TEST_UTIL_HH
