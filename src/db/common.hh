/**
 * @file
 * Engine-wide constants for the Postgres95-analog DBMS.
 */

#ifndef DSS_DB_COMMON_HH
#define DSS_DB_COMMON_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dss {
namespace db {

/** Buffer block / page size, as in Postgres95. */
constexpr std::size_t kPageBytes = 8 * 1024;

/** Relation identifier. */
using RelId = std::int32_t;

/** Block number within a relation's buffer-resident heap. */
using BlockNo = std::int32_t;

/** Transaction identifier. */
using Xid = std::uint32_t;

/** Tuple identifier: (block, slot) within a relation. */
struct Tid
{
    BlockNo block = 0;
    std::uint16_t slot = 0;

    bool operator==(const Tid &o) const
    {
        return block == o.block && slot == o.slot;
    }
};

/**
 * A query-level abort: the transaction's relation lock conflicts with
 * another transaction's, and it must release its grants. The read-only
 * queries never conflict (read locks share); only update functions that
 * meet a rival writer abort. A bench that stages such a conflict catches
 * it and captures again; one that escapes to harness::guardedMain is
 * reported there as an error (exit 3), never a crash.
 */
class QueryAbort : public std::runtime_error
{
  public:
    enum class Reason {
        WriteConflict,     ///< Write lock vs. existing readers/writers
        ReadWriteConflict, ///< Read lock vs. an existing writer
    };

    QueryAbort(Reason reason, Xid xid, RelId rel, const std::string &what)
        : std::runtime_error(what), reason(reason), xid(xid), rel(rel)
    {}

    Reason reason;
    Xid xid;
    RelId rel;
};

} // namespace db
} // namespace dss

#endif // DSS_DB_COMMON_HH
