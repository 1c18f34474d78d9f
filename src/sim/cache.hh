/**
 * @file
 * Set-associative cache with LRU replacement and cold/conflict/coherence
 * miss classification.
 *
 * The classification follows the taxonomy the paper uses in Figure 7:
 *  - Cold: the line was never before present in this cache.
 *  - Cohe: the line was present and its most recent removal was a coherence
 *          invalidation caused by another processor's write.
 *  - Conf: everything else (capacity is folded into conflict, as in the
 *          paper's three-way split).
 */

#ifndef DSS_SIM_CACHE_HH
#define DSS_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/addr.hh"
#include "sim/line_table.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

/** Read-miss classification (paper Figure 7). */
enum class MissType : std::uint8_t { Cold, Conf, Cohe, NumTypes };

constexpr std::size_t kNumMissTypes =
    static_cast<std::size_t>(MissType::NumTypes);

constexpr std::string_view
missTypeName(MissType t)
{
    switch (t) {
      case MissType::Cold: return "Cold";
      case MissType::Conf: return "Conf";
      case MissType::Cohe: return "Cohe";
      default: return "?";
    }
}

/** Geometry of one cache level. */
struct CacheConfig
{
    std::size_t sizeBytes = 4 * 1024;
    std::size_t lineBytes = 32;
    std::size_t assoc = 1;
};

/**
 * One cache array. Timing lives in Machine; this class models only
 * presence, replacement, dirtiness and miss classification.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Result of a lookup that missed. */
    struct Victim
    {
        bool valid = false; ///< a line was evicted
        bool dirty = false; ///< ... and it was dirty (needs writeback)
        Addr lineAddr = 0;  ///< ... at this line address
    };

    /** Line-aligned address of @p addr. */
    Addr lineAddrOf(Addr addr) const { return addr & ~(lineBytes_ - 1); }

    /** True if the line holding @p addr is present. */
    bool contains(Addr addr) const { return find(addr) != nullptr; }

    /** True if the line holding @p addr is present and dirty. */
    bool isDirty(Addr addr) const;

    /**
     * Look up @p addr; on hit, refresh LRU and optionally set dirty.
     * @return true on hit.
     *
     * Defined inline: this is the simulator's hottest call (every traced
     * reference goes through the L1, most of them hits).
     */
    bool
    access(Addr addr, bool set_dirty = false)
    {
        ++ctrs_.lookups;
        Line *l = find(addr);
        if (!l)
            return false;
        ++ctrs_.hits;
        l->lru = ++stamp_;
        if (set_dirty)
            l->dirty = true;
        return true;
    }

    /**
     * Classify a miss on @p addr. Call after access() returned false and
     * before fill() (fill updates the bookkeeping).
     */
    MissType classifyMiss(Addr addr) const;

    /**
     * Insert the line holding @p addr, evicting the LRU way if needed.
     * @return victim information for writeback handling.
     */
    Victim fill(Addr addr, bool dirty = false);

    /**
     * Remove the line holding @p addr if present.
     * @param coherence true if removal is a coherence invalidation (affects
     *                  future miss classification).
     * @return true if the line was present (and whether it was dirty via
     *         @p was_dirty).
     */
    bool invalidate(Addr addr, bool coherence, bool *was_dirty = nullptr);

    /**
     * Forget a pending coherence mark on the line holding @p addr, so a
     * future miss classifies as Conf rather than Cohe. Used when the
     * processor re-acquires the line through a path that does not fill
     * this cache (a write-through L1 never allocates on a store, so the
     * store that repays the invalidation must clear the mark by hand).
     */
    void clearCoherenceMark(Addr addr);

    /** Mark the line holding @p addr dirty (must be present). */
    void markDirty(Addr addr);

    /** Clear the dirty bit (downgrade after a remote read). */
    void markClean(Addr addr);

    /** Drop all contents and classification history (cold caches). */
    void reset();

    /** All currently valid line addresses (used for inclusion checks). */
    std::vector<Addr> residentLines() const;

    const CacheConfig &config() const { return cfg_; }
    std::size_t numSets() const { return numSets_; }

    /** Set index of line address @p line_addr. */
    std::size_t
    setOf(Addr line_addr) const
    {
        return (line_addr / lineBytes_) & (numSets_ - 1);
    }

    /**
     * Lifetime event counters (observability). Unlike the per-run
     * ProcStats kept by the Machine, these cover every access since the
     * cache was constructed — reset() cold-starts the *contents* but not
     * the counters.
     */
    struct Counters
    {
        std::uint64_t lookups = 0; ///< access() calls
        std::uint64_t hits = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;     ///< fills that displaced a line
        std::uint64_t invalidations = 0; ///< lines removed by invalidate()
        std::uint64_t cohInvalidations = 0; ///< ... due to coherence
    };

    const Counters &counters() const { return ctrs_; }

    /** Register this cache's counters under "<prefix>.<leaf>" names. */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Line *
    find(Addr addr)
    {
        return const_cast<Line *>(
            static_cast<const Cache *>(this)->find(addr));
    }

    const Line *
    find(Addr addr) const
    {
        const Addr la = lineAddrOf(addr);
        const Line *set = &lines_[setOf(la) * cfg_.assoc];
        for (std::size_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].valid && set[w].tag == la)
                return &set[w];
        }
        return nullptr;
    }

    CacheConfig cfg_;
    std::size_t lineBytes_;
    std::size_t numSets_;
    std::uint64_t stamp_ = 0;
    std::vector<Line> lines_; // numSets_ x assoc
    /**
     * Miss-classification history: a line is present once it was ever
     * loaded, and its value is kRemovedByCoherence while its most recent
     * removal was a coherence invalidation not yet repaid by a fill or
     * clearCoherenceMark().
     */
    LineTable<std::uint8_t> history_;
    static constexpr std::uint8_t kRemovedByCoherence = 1;
    Counters ctrs_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_CACHE_HH
