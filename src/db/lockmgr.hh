/**
 * @file
 * Lock Management Module, after Postgres95 (paper Figure 4): a lock hash
 * table keyed by lockable object, a transaction (xid) hash recording which
 * transaction holds what, and the LockMgrLock spinlock (the paper's
 * "LockSLock") serializing every lock-manager operation.
 *
 * Postgres95 implements multi-type (read/write) locks but, of the
 * relation/page/tuple levels, only the relation level is complete; the
 * paper's read-only queries therefore take relation-level read locks that
 * never conflict — data-lock *wait* time is negligible, but the metalock
 * and the two hash tables are touched continuously, which is what shows up
 * as LockSLock/LockHash/XidHash coherence misses in Figure 7.
 */

#ifndef DSS_DB_LOCKMGR_HH
#define DSS_DB_LOCKMGR_HH

#include <cstdint>

#include "db/common.hh"
#include "db/mem.hh"

namespace dss {
namespace obs {
class RegionMap;
} // namespace obs

namespace db {

/** Lock modes (multi-type). Read-only queries use Read. */
enum class LockMode : std::int32_t { Read = 0, Write = 1 };

class LockManager
{
  public:
    /**
     * Allocate the shared lock tables in @p setup's shared arena.
     * @param max_locks Capacity of the lock hash (distinct lockables).
     * @param max_xid_entries Capacity of the xid hash.
     */
    LockManager(TracedMemory &setup, unsigned max_locks,
                unsigned max_xid_entries);

    /**
     * Acquire a relation-level lock for transaction @p xid: take
     * LockMgrLock, find/insert the relation in the lock hash, bump the
     * holder count, record the grant in the xid hash, release.
     *
     * @return true (read locks never conflict; a Write/Write or
     *         Read/Write conflict throws QueryAbort, which the caller
     *         handles by releasing its grants — see db::QueryAbort).
     */
    bool lockRelation(TracedMemory &mem, Xid xid, RelId rel, LockMode mode);

    /** Release a relation-level lock previously granted to @p xid. */
    void unlockRelation(TracedMemory &mem, Xid xid, RelId rel,
                        LockMode mode = LockMode::Read);

    /** Release everything @p xid still holds (end of query). */
    void releaseAll(TracedMemory &mem, Xid xid);

    /**
     * Free the xid-hash entries of @p xid whose grant count has dropped
     * to zero. unlockRelation leaves the (xid, rel) entry in place with
     * count 0 — Postgres95 frees the proclock at transaction end, which
     * the single-shot traces never reach — so back-to-back queries see
     * probe chains that grow with history and the hash eventually fills.
     * The stream scheduler calls this between instances through an
     * *untraced* memory so the cleanup never perturbs captured traces;
     * entries still holding grants are left alone.
     */
    void sweepXid(TracedMemory &mem, Xid xid);

    /** The LockMgrLock word (the paper's LockSLock). */
    sim::Addr lockAddr() const { return lock_; }

    /** Host-side holder count of @p rel's lock entry, for tests. */
    std::int32_t holdersOf(TracedMemory &mem, RelId rel);

    /**
     * Register the LockMgrLock and both hash tables with the memory
     * profiler's symbol map ("lock hash bucket N", "xid hash bucket N").
     */
    void describeRegions(obs::RegionMap &map) const;

  private:
    static constexpr std::size_t kLockEntryBytes = 16;
    static constexpr std::size_t kXidEntryBytes = 16;

    std::uint32_t probeLockHash(TracedMemory &mem, RelId rel);
    std::uint32_t probeXidHash(TracedMemory &mem, Xid xid, RelId rel);

    sim::Addr lockEntry(std::uint32_t s) const
    {
        return lockHash_ + s * kLockEntryBytes;
    }

    sim::Addr xidEntry(std::uint32_t s) const
    {
        return xidHash_ + s * kXidEntryBytes;
    }

    std::uint32_t lockHashSize_;
    std::uint32_t xidHashSize_;
    sim::Addr lock_ = 0;     ///< LockMgrLock
    sim::Addr lockHash_ = 0; ///< lock hash entries
    sim::Addr xidHash_ = 0;  ///< xid hash entries
};

} // namespace db
} // namespace dss

#endif // DSS_DB_LOCKMGR_HH
