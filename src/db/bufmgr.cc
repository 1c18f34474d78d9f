#include "db/bufmgr.hh"

#include <stdexcept>

#include "obs/lineinfo.hh"

namespace dss {
namespace db {

namespace {

// BufferDesc layout (32 bytes).
constexpr sim::Addr kDescRel = 0;
constexpr sim::Addr kDescBlk = 4;
constexpr sim::Addr kDescPin = 8;
constexpr sim::Addr kDescFlags = 12;
constexpr sim::Addr kDescPage = 16; // uint64 block address

// Lookup-hash entry layout (16 bytes).
constexpr sim::Addr kHashRel = 0;
constexpr sim::Addr kHashBlk = 4;
constexpr sim::Addr kHashDesc = 8;

std::uint32_t
nextPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

std::uint32_t
mixHash(RelId rel, BlockNo blk)
{
    auto h = static_cast<std::uint32_t>(rel) * 2654435761u;
    h ^= static_cast<std::uint32_t>(blk) * 40503u + (h >> 16);
    return h;
}

} // namespace

BufferManager::BufferManager(TracedMemory &setup, unsigned max_blocks)
    : maxBlocks_(max_blocks), hashSize_(nextPow2(max_blocks * 2))
{
    sim::MemArena &arena = setup.space().shared();
    lock_ = arena.alloc(64, sim::DataClass::LockSLock, 64);
    descs_ = arena.alloc(maxBlocks_ * kDescBytes, sim::DataClass::BufDesc, 64);
    hash_ = arena.alloc(hashSize_ * kHashEntryBytes, sim::DataClass::BufLook,
                        64);
    // Empty hash slots are marked rel = -1 (host init; no trace needed at
    // setup, but going through the sink is harmless since setup uses a
    // NullSink).
    for (std::uint32_t s = 0; s < hashSize_; ++s)
        setup.store<std::int32_t>(hashAddr(s) + kHashRel, -1);
}

std::uint32_t
BufferManager::probeHash(TracedMemory &mem, RelId rel, BlockNo blk,
                         bool for_insert)
{
    std::uint32_t slot = mixHash(rel, blk) & (hashSize_ - 1);
    mem.busy(2); // hash computation
    for (std::uint32_t n = 0; n < hashSize_; ++n) {
        auto e_rel = mem.load<std::int32_t>(hashAddr(slot) + kHashRel);
        if (e_rel == -1) {
            if (for_insert)
                return slot;
            throw std::runtime_error("BufferManager: block not resident");
        }
        if (e_rel == rel) {
            auto e_blk = mem.load<std::int32_t>(hashAddr(slot) + kHashBlk);
            if (e_blk == blk)
                return slot;
        }
        slot = (slot + 1) & (hashSize_ - 1);
    }
    throw std::runtime_error("BufferManager: lookup hash full");
}

sim::Addr
BufferManager::allocBlock(TracedMemory &setup, RelId rel, BlockNo blk,
                          sim::DataClass cls)
{
    if (numBlocks_ >= maxBlocks_)
        throw std::runtime_error("BufferManager: out of buffer blocks");

    sim::Addr page =
        setup.space().shared().alloc(kPageBytes, cls, kPageBytes);

    std::uint32_t idx = numBlocks_++;
    sim::Addr d = descAddr(idx);
    setup.store<std::int32_t>(d + kDescRel, rel);
    setup.store<std::int32_t>(d + kDescBlk, blk);
    setup.store<std::int32_t>(d + kDescPin, 0);
    setup.store<std::int32_t>(d + kDescFlags, 0);
    setup.store<std::uint64_t>(d + kDescPage, page);

    std::uint32_t slot = probeHash(setup, rel, blk, /*for_insert=*/true);
    setup.store<std::int32_t>(hashAddr(slot) + kHashRel, rel);
    setup.store<std::int32_t>(hashAddr(slot) + kHashBlk, blk);
    setup.store<std::int32_t>(hashAddr(slot) + kHashDesc,
                              static_cast<std::int32_t>(idx));
    blocks_.push_back({page, rel, blk, cls});
    return page;
}

sim::Addr
BufferManager::blockAddr(RelId rel, BlockNo blk) const
{
    for (const BlockInfo &b : blocks_) {
        if (b.rel == rel && b.blk == blk)
            return b.page;
    }
    throw std::runtime_error("BufferManager: blockAddr of unknown block");
}

void
BufferManager::describeRegions(
    obs::RegionMap &map,
    const std::function<std::string(RelId)> &rel_name) const
{
    map.add(lock_, 64, "BufMgrLock");
    map.addIndexed(descs_, maxBlocks_, kDescBytes, "buf descriptor");
    map.addIndexed(hash_, hashSize_, kHashEntryBytes, "buf lookup bucket");
    for (const BlockInfo &b : blocks_) {
        if (b.cls != sim::DataClass::Data)
            continue;
        map.add(b.page, kPageBytes,
                rel_name(b.rel) + " heap blk " + std::to_string(b.blk));
    }
}

sim::Addr
BufferManager::pinPage(TracedMemory &mem, RelId rel, BlockNo blk)
{
    mem.lockAcquire(lock_);
    std::uint32_t slot = probeHash(mem, rel, blk, /*for_insert=*/false);
    auto idx = static_cast<std::uint32_t>(
        mem.load<std::int32_t>(hashAddr(slot) + kHashDesc));
    sim::Addr d = descAddr(idx);
    auto pin = mem.load<std::int32_t>(d + kDescPin);
    mem.store<std::int32_t>(d + kDescPin, pin + 1);
    auto page = mem.load<std::uint64_t>(d + kDescPage);
    mem.lockRelease(lock_);
    mem.busy(30); // ReadBuffer machinery outside the critical section
    return page;
}

void
BufferManager::unpinPage(TracedMemory &mem, RelId rel, BlockNo blk)
{
    mem.lockAcquire(lock_);
    std::uint32_t slot = probeHash(mem, rel, blk, /*for_insert=*/false);
    auto idx = static_cast<std::uint32_t>(
        mem.load<std::int32_t>(hashAddr(slot) + kHashDesc));
    sim::Addr d = descAddr(idx);
    auto pin = mem.load<std::int32_t>(d + kDescPin);
    if (pin <= 0)
        throw std::runtime_error("BufferManager: unpin of unpinned page");
    mem.store<std::int32_t>(d + kDescPin, pin - 1);
    mem.lockRelease(lock_);
    mem.busy(25);
}

std::int32_t
BufferManager::pinCountOf(TracedMemory &mem, RelId rel, BlockNo blk)
{
    std::uint32_t slot = probeHash(mem, rel, blk, /*for_insert=*/false);
    auto idx = static_cast<std::uint32_t>(
        mem.load<std::int32_t>(hashAddr(slot) + kHashDesc));
    return mem.load<std::int32_t>(descAddr(idx) + kDescPin);
}

} // namespace db
} // namespace dss
