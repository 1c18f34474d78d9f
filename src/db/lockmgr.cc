#include "db/lockmgr.hh"

#include <stdexcept>

#include "obs/lineinfo.hh"

namespace dss {
namespace db {

namespace {

// Lock hash entry (16 bytes): {rel, readHolders, writeHolders, pad}.
constexpr sim::Addr kLockRel = 0;
constexpr sim::Addr kLockReaders = 4;
constexpr sim::Addr kLockWriters = 8;

// Xid hash entry (16 bytes): {xid, rel, count, mode}.
constexpr sim::Addr kXidXid = 0;
constexpr sim::Addr kXidRel = 4;
constexpr sim::Addr kXidCount = 8;
constexpr sim::Addr kXidMode = 12;

std::uint32_t
nextPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

LockManager::LockManager(TracedMemory &setup, unsigned max_locks,
                         unsigned max_xid_entries)
    : lockHashSize_(nextPow2(max_locks * 2)),
      xidHashSize_(nextPow2(max_xid_entries * 2))
{
    sim::MemArena &arena = setup.space().shared();
    lock_ = arena.alloc(64, sim::DataClass::LockSLock, 64);
    lockHash_ = arena.alloc(lockHashSize_ * kLockEntryBytes,
                            sim::DataClass::LockHash, 64);
    xidHash_ = arena.alloc(xidHashSize_ * kXidEntryBytes,
                           sim::DataClass::XidHash, 64);
    for (std::uint32_t s = 0; s < lockHashSize_; ++s)
        setup.store<std::int32_t>(lockEntry(s) + kLockRel, -1);
    for (std::uint32_t s = 0; s < xidHashSize_; ++s)
        setup.store<std::int32_t>(xidEntry(s) + kXidRel, -1);
}

std::uint32_t
LockManager::probeLockHash(TracedMemory &mem, RelId rel)
{
    auto slot = (static_cast<std::uint32_t>(rel) * 2654435761u) &
                (lockHashSize_ - 1);
    mem.busy(2);
    for (std::uint32_t n = 0; n < lockHashSize_; ++n) {
        auto e_rel = mem.load<std::int32_t>(lockEntry(slot) + kLockRel);
        if (e_rel == rel || e_rel == -1)
            return slot;
        slot = (slot + 1) & (lockHashSize_ - 1);
    }
    throw std::runtime_error("LockManager: lock hash full");
}

std::uint32_t
LockManager::probeXidHash(TracedMemory &mem, Xid xid, RelId rel)
{
    auto slot = (xid * 2654435761u ^
                 static_cast<std::uint32_t>(rel) * 40503u) &
                (xidHashSize_ - 1);
    mem.busy(2);
    for (std::uint32_t n = 0; n < xidHashSize_; ++n) {
        auto e_rel = mem.load<std::int32_t>(xidEntry(slot) + kXidRel);
        if (e_rel == -1)
            return slot;
        if (e_rel == rel) {
            auto e_xid = mem.load<std::uint32_t>(xidEntry(slot) + kXidXid);
            if (e_xid == xid)
                return slot;
        }
        slot = (slot + 1) & (xidHashSize_ - 1);
    }
    throw std::runtime_error("LockManager: xid hash full");
}

bool
LockManager::lockRelation(TracedMemory &mem, Xid xid, RelId rel,
                          LockMode mode)
{
    mem.lockAcquire(lock_);

    std::uint32_t ls = probeLockHash(mem, rel);
    auto e_rel = mem.load<std::int32_t>(lockEntry(ls) + kLockRel);
    if (e_rel == -1)
        mem.store<std::int32_t>(lockEntry(ls) + kLockRel, rel);

    if (mode == LockMode::Read) {
        auto writers = mem.load<std::int32_t>(lockEntry(ls) + kLockWriters);
        if (writers != 0) {
            // No lock waiting in the simulated DBMS: conflicts abort the
            // query (see db::QueryAbort).
            mem.lockRelease(lock_);
            throw QueryAbort(QueryAbort::Reason::ReadWriteConflict, xid,
                             rel,
                             "LockManager: read/write conflict on rel " +
                                 std::to_string(rel));
        }
        auto readers = mem.load<std::int32_t>(lockEntry(ls) + kLockReaders);
        mem.store<std::int32_t>(lockEntry(ls) + kLockReaders, readers + 1);
    } else {
        auto readers = mem.load<std::int32_t>(lockEntry(ls) + kLockReaders);
        auto writers = mem.load<std::int32_t>(lockEntry(ls) + kLockWriters);
        if (readers != 0 || writers != 0) {
            mem.lockRelease(lock_);
            throw QueryAbort(QueryAbort::Reason::WriteConflict, xid, rel,
                             "LockManager: write conflict on rel " +
                                 std::to_string(rel));
        }
        mem.store<std::int32_t>(lockEntry(ls) + kLockWriters, writers + 1);
    }

    std::uint32_t xs = probeXidHash(mem, xid, rel);
    auto x_rel = mem.load<std::int32_t>(xidEntry(xs) + kXidRel);
    if (x_rel == -1) {
        mem.store<std::uint32_t>(xidEntry(xs) + kXidXid, xid);
        mem.store<std::int32_t>(xidEntry(xs) + kXidRel, rel);
        mem.store<std::int32_t>(xidEntry(xs) + kXidCount, 1);
        mem.store<std::int32_t>(xidEntry(xs) + kXidMode,
                                static_cast<std::int32_t>(mode));
    } else {
        auto cnt = mem.load<std::int32_t>(xidEntry(xs) + kXidCount);
        mem.store<std::int32_t>(xidEntry(xs) + kXidCount, cnt + 1);
    }

    mem.lockRelease(lock_);
    mem.busy(6); // lock-manager bookkeeping
    return true;
}

void
LockManager::unlockRelation(TracedMemory &mem, Xid xid, RelId rel,
                            LockMode mode)
{
    mem.lockAcquire(lock_);

    std::uint32_t xs = probeXidHash(mem, xid, rel);
    auto x_rel = mem.load<std::int32_t>(xidEntry(xs) + kXidRel);
    if (x_rel != rel)
        throw std::runtime_error("LockManager: unlock without lock");
    auto cnt = mem.load<std::int32_t>(xidEntry(xs) + kXidCount);
    mem.store<std::int32_t>(xidEntry(xs) + kXidCount, cnt - 1);

    std::uint32_t ls = probeLockHash(mem, rel);
    const sim::Addr holders =
        lockEntry(ls) + (mode == LockMode::Read ? kLockReaders
                                                : kLockWriters);
    auto n = mem.load<std::int32_t>(holders);
    if (n <= 0)
        throw std::runtime_error("LockManager: holder underflow");
    mem.store<std::int32_t>(holders, n - 1);

    mem.lockRelease(lock_);
    mem.busy(5);
}

void
LockManager::releaseAll(TracedMemory &mem, Xid xid)
{
    // Walk the xid hash (traced) and drop every remaining grant.
    for (std::uint32_t s = 0; s < xidHashSize_; ++s) {
        auto e_rel = mem.load<std::int32_t>(xidEntry(s) + kXidRel);
        if (e_rel == -1)
            continue;
        auto e_xid = mem.load<std::uint32_t>(xidEntry(s) + kXidXid);
        if (e_xid != xid)
            continue;
        auto cnt = mem.load<std::int32_t>(xidEntry(s) + kXidCount);
        const auto mode = static_cast<LockMode>(
            mem.load<std::int32_t>(xidEntry(s) + kXidMode));
        while (cnt-- > 0)
            unlockRelation(mem, xid, e_rel, mode);
    }
}

void
LockManager::sweepXid(TracedMemory &mem, Xid xid)
{
    for (std::uint32_t s = 0; s < xidHashSize_; ++s) {
        auto e_rel = mem.load<std::int32_t>(xidEntry(s) + kXidRel);
        if (e_rel == -1)
            continue;
        auto e_xid = mem.load<std::uint32_t>(xidEntry(s) + kXidXid);
        if (e_xid != xid)
            continue;
        auto cnt = mem.load<std::int32_t>(xidEntry(s) + kXidCount);
        if (cnt > 0)
            continue;
        mem.store<std::int32_t>(xidEntry(s) + kXidRel, -1);
        mem.store<std::uint32_t>(xidEntry(s) + kXidXid, 0);
        mem.store<std::int32_t>(xidEntry(s) + kXidCount, 0);
        mem.store<std::int32_t>(xidEntry(s) + kXidMode, 0);
    }
}

std::int32_t
LockManager::holdersOf(TracedMemory &mem, RelId rel)
{
    std::uint32_t ls = probeLockHash(mem, rel);
    return mem.load<std::int32_t>(lockEntry(ls) + kLockReaders);
}

void
LockManager::describeRegions(obs::RegionMap &map) const
{
    map.add(lock_, 64, "LockMgrLock");
    map.addIndexed(lockHash_, lockHashSize_, kLockEntryBytes,
                   "lock hash bucket");
    map.addIndexed(xidHash_, xidHashSize_, kXidEntryBytes,
                   "xid hash bucket");
}

} // namespace db
} // namespace dss
