/**
 * @file
 * Simulation statistics, organized to regenerate the paper's figures:
 * execution-time breakdown (Busy/Mem/MSync, Fig 6a), memory-stall
 * decomposition by structure group (Fig 6b, 9, 11), and read-miss counts
 * per cache level x data class x miss type (Fig 7, 8, 10, 12).
 *
 * The per-cache-level counters are arrays indexed by hierarchy level
 * (sim/hierarchy.hh), sized for the deepest chain a machine may declare.
 * The legacy two-level names (l1Hits, l2Misses, ...) survive as inline
 * reference accessors onto levels 0 and 1, so every report and figure
 * computation reads exactly the slots it always read — on a two-level
 * machine the refactor is invisible, byte for byte.
 */

#ifndef DSS_SIM_STATS_HH
#define DSS_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/addr.hh"
#include "sim/cache.hh"
#include "sim/hierarchy.hh"

namespace dss {
namespace sim {

/** Read-miss counters for one cache level. */
struct MissTable
{
    std::array<std::array<std::uint64_t, kNumMissTypes>, kNumDataClasses>
        count = {};

    void
    add(DataClass c, MissType t, std::uint64_t n = 1)
    {
        count[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)] += n;
    }

    std::uint64_t
    of(DataClass c, MissType t) const
    {
        return count[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)];
    }

    std::uint64_t byClass(DataClass c) const;
    std::uint64_t byGroup(ClassGroup g) const;
    std::uint64_t byGroupAndType(ClassGroup g, MissType t) const;
    std::uint64_t total() const;

    MissTable &operator+=(const MissTable &o);

    /** Cell-wise subtraction (epoch deltas; @p o must be <= *this). */
    MissTable &operator-=(const MissTable &o);
};

/** Per-processor statistics. */
struct ProcStats
{
    Cycles busy = 0;      ///< issue + compute cycles
    Cycles memStall = 0;  ///< read-miss + write-buffer-overflow stall
    Cycles syncStall = 0; ///< metalock acquire/spin/release time (MSync)

    /** Mem stall attributed to the structure group missed on (Fig 6b). */
    std::array<Cycles, kNumClassGroups> memStallByGroup = {};

    /** Hop classes of hopsByGroup: local / 2-hop / 3-hop transactions. */
    static constexpr std::size_t kNumHopClasses = 3;

    /**
     * Demand directory transactions (read miss, write upgrade/allocate,
     * lock RMW) issued by this processor, by structure group x hop class
     * — the placement layer's figure of merit. Background traffic
     * (prefetch fills, victim writebacks) is not counted: it occupies
     * controllers but never stalls the processor. Deliberately absent
     * from obs::toJson(ProcStats), whose byte-exact output the golden
     * fixtures pin; exported via the counter registry instead.
     */
    std::array<std::array<std::uint64_t, kNumHopClasses>, kNumClassGroups>
        hopsByGroup = {};

    std::uint64_t reads = 0;   ///< traced loads issued
    std::uint64_t writes = 0;  ///< traced stores issued

    /**
     * References to private stack/static data, which the paper's scaling
     * methodology assumes always hit (Section 4.2). They are not traced;
     * the Machine infers them from Busy time (about one reference per
     * three instructions) so miss *rates* use the same denominator the
     * paper's do.
     */
    std::uint64_t assumedHitReads = 0;

    /**
     * Depth of the hierarchy these counters describe. Machine::run stamps
     * it; aggregation adopts the deepest operand. Slots at or past it are
     * structurally zero.
     */
    std::uint8_t levels = 2;

    /** Read hits per level; [0] is the primary cache. */
    std::array<std::uint64_t, kMaxCacheLevels> levelHits = {};

    /**
     * Read lookups that reached each level past the primary ([0] is
     * unused — level-0 traffic is reads/levelHits[0]). On the baseline
     * chain levelAccesses[1] is the legacy "L1 read misses reaching the
     * L2".
     */
    std::array<std::uint64_t, kMaxCacheLevels> levelAccesses = {};

    /** Read misses per level, classified Cold/Conf/Cohe. */
    std::array<MissTable, kMaxCacheLevels> levelMisses;

    std::uint64_t wbOverflows = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0; ///< prefetched lines hit before evict

    /**
     * True/false-sharing split of the coherent-level coherence misses,
     * populated only while a memory profile is attached
     * (Machine::setMemProfile); both stay zero otherwise. When attached,
     * l2CoheTrue + l2CoheFalse equals the Cohe column of the coherent
     * level's MissTable summed over classes, by construction. Like
     * hopsByGroup, deliberately absent from obs::toJson(ProcStats) —
     * exported via the counter registry as proc*.miss.cohe.{true,false}.
     */
    std::uint64_t l2CoheTrue = 0;
    std::uint64_t l2CoheFalse = 0;

    /** @name Legacy two-level accessors
     * Reference views onto the per-level arrays under the names the
     * figure code and the golden reports have always used. On a chain of
     * three or more levels, "l2" still means level 1 (the cache named
     * L2); the coherent level's counters are cohMisses()/levelHits. */
    ///@{
    std::uint64_t &l1Hits() { return levelHits[0]; }
    std::uint64_t l1Hits() const { return levelHits[0]; }
    std::uint64_t &l2Hits() { return levelHits[1]; }
    std::uint64_t l2Hits() const { return levelHits[1]; }
    /** L1 read misses reaching the L2. */
    std::uint64_t &l2Accesses() { return levelAccesses[1]; }
    std::uint64_t l2Accesses() const { return levelAccesses[1]; }
    MissTable &l1Misses() { return levelMisses[0]; }
    const MissTable &l1Misses() const { return levelMisses[0]; }
    MissTable &l2Misses() { return levelMisses[1]; }
    const MissTable &l2Misses() const { return levelMisses[1]; }
    ///@}

    /** The coherent (last) level's miss table. */
    MissTable &cohMisses() { return levelMisses[levels - 1]; }
    const MissTable &cohMisses() const { return levelMisses[levels - 1]; }

    Cycles totalCycles() const { return busy + memStall + syncStall; }

    /** PMem of Figs 9/11: stall on private structures. */
    Cycles pmem() const
    {
        return memStallByGroup[static_cast<std::size_t>(ClassGroup::Priv)];
    }

    /** SMem of Figs 9/11: stall on shared structures. */
    Cycles smem() const { return memStall - pmem(); }

    /** Demand transactions of one hop class, summed over groups. */
    std::uint64_t hopsOfClass(std::size_t hop) const;

    /** All demand directory transactions (every group, every hop). */
    std::uint64_t hopsTotal() const;

    /** Primary-cache read miss rate (paper Section 5.1). */
    double l1MissRate() const;

    /** Secondary-cache global miss rate: L2 misses / all loads. */
    double l2GlobalMissRate() const;

    ProcStats &operator+=(const ProcStats &o);

    /**
     * Field-wise subtraction. Used by the epoch sampler to turn cumulative
     * snapshots into per-epoch deltas; @p o must be a component-wise lower
     * bound of *this (an earlier snapshot of the same counters).
     */
    ProcStats &operator-=(const ProcStats &o);
};

/** Whole-machine statistics for one simulated run. */
struct SimStats
{
    std::vector<ProcStats> procs;

    /** Sum over processors. */
    ProcStats aggregate() const;

    /** Longest processor time = parallel execution time. */
    Cycles executionTime() const;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_STATS_HH
