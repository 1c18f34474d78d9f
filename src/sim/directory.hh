/**
 * @file
 * Directory-based coherence state for a CC-NUMA machine.
 *
 * The directory tracks, per secondary-cache line, whether memory holds the
 * only copy (Uncached), one or more caches hold clean copies (Shared), or a
 * single cache holds a dirty copy (Dirty). The home node of a line is
 * not the directory's to decide: the Machine asks its page-placement
 * policy (sim/placement.hh) and hands the home to the directory's
 * latency and controller calls.
 *
 * Latency mirrors the paper's baseline: a miss satisfied by local memory
 * costs 80 cycles round trip; by a remote home or a dirty remote owner in a
 * 2-hop transaction, 249; in a 3-hop transaction, 351. The home node's
 * memory controller is a contended resource (the paper models all
 * contention except the network); the network itself is a fixed delay
 * folded into those constants.
 */

#ifndef DSS_SIM_DIRECTORY_HH
#define DSS_SIM_DIRECTORY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/addr.hh"
#include "sim/line_table.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

/**
 * Memory-side latency constants for one machine configuration (paper
 * Section 4.3). Cache hit latencies live with their level
 * (LevelConfig::hitCycles, sim/hierarchy.hh).
 */
struct LatencyConfig
{
    Cycles localMem = 80;      ///< local memory, clean line
    Cycles remote2Hop = 249;   ///< two network crossings on the critical path
    Cycles remote3Hop = 351;   ///< three network crossings
    Cycles controllerOccupancy = 18; ///< home memory-controller service time

    /**
     * The four round-trip latencies above are quoted for the baseline
     * 64 B L2 line. Other line sizes transfer more or less data: memory
     * transactions gain (line - 64) / memBytesPerCycle cycles, and the
     * home controller is occupied (line - 64) / ctrlBytesPerCycle longer
     * ("each miss takes longer to satisfy", paper Section 5.2.1).
     */
    Cycles memBytesPerCycle = 2;
    Cycles ctrlBytesPerCycle = 8;
};

class Directory
{
  public:
    enum class State : std::uint8_t { Uncached, Shared, Dirty };

    struct Entry
    {
        State state = State::Uncached;
        std::uint64_t sharers = 0; ///< bitmask of caching nodes
        ProcId owner = 0;         ///< valid when state == Dirty

        bool operator==(const Entry &o) const = default;
    };

    /**
     * @param nnodes Number of nodes (processor + memory each).
     * @param line_bytes Coherence granularity (the L2 line size).
     */
    Directory(unsigned nnodes, std::size_t line_bytes,
              const LatencyConfig &lat);

    /**
     * Directory entry for the line containing @p addr (created lazily).
     * The reference stays valid until the next entry() call that creates
     * an entry (see LineTable::get).
     */
    Entry &entry(Addr addr) { return entries_.get(addr); }

    /**
     * Read-only lookup that never creates an entry; nullptr when the line
     * has no directory state yet (the invariant checker's view).
     */
    const Entry *peek(Addr addr) const { return entries_.find(addr); }

    /** Line-aligned address. */
    Addr lineAddrOf(Addr addr) const { return addr & ~(lineBytes_ - 1); }

    /**
     * Uncontended round-trip latency of a transaction issued by
     * @p requester for a line homed at @p home, possibly forwarded to a
     * @p dirty_owner (pass requester itself for "no forwarding").
     */
    Cycles transactionLatency(ProcId requester, ProcId home,
                              ProcId dirty_owner, bool dirty) const;

    /**
     * Network crossings on a transaction's critical path — the quantity
     * transactionLatency prices (0 = satisfied locally, 2 = remote home
     * or local-home-remote-owner, 3 = remote home forwarding to a remote
     * dirty owner).
     */
    static unsigned
    crossings(ProcId requester, ProcId home, ProcId dirty_owner, bool dirty)
    {
        unsigned n = 0;
        if (home != requester)
            ++n;
        if (dirty && dirty_owner != requester) {
            if (dirty_owner != home)
                ++n; // home forwards to the owner
            ++n;     // owner (or home-as-owner) replies to the requester
        } else {
            if (home != requester)
                ++n; // home replies with the memory copy
        }
        return n;
    }

    /** Hop classes of the per-class transaction counters. */
    static constexpr std::size_t kNumHopClasses = 3;

    /**
     * Hop-class index of a transaction: 0 = local, 1 = 2-hop,
     * 2 = 3-hop (the paper's local / 249-cycle / 351-cycle buckets).
     */
    static std::size_t
    hopClass(ProcId requester, ProcId home, ProcId dirty_owner, bool dirty)
    {
        const unsigned n = crossings(requester, home, dirty_owner, dirty);
        return n == 0 ? 0 : (n <= 2 ? 1 : 2);
    }

    /**
     * Serialize a request at @p home's memory controller.
     * @param arrival Cycle the request reaches the controller.
     * @return queuing delay before service starts.
     */
    Cycles acquireController(ProcId home, Cycles arrival);

    /** Controller service time per transaction at the current line size. */
    Cycles occupancyCycles() const;

    /** Forget all sharing state and controller occupancy. */
    void reset();

    /** Reset only controller occupancy (clocks restart between runs). */
    void resetControllers();

    /**
     * Clear the per-home contention counters. They are lifetime
     * counters otherwise — reset()/resetControllers() leave them alone —
     * which made repetitions of runSequence accumulate each other's
     * requests; the harness runner calls this before every repetition so
     * per-run snapshots and epoch deltas reconcile.
     */
    void resetStats();

    unsigned nnodes() const { return nnodes_; }
    const LatencyConfig &latency() const { return lat_; }

    /** Number of lines with directory state (for tests). */
    std::size_t trackedLines() const { return entries_.size(); }

    /**
     * Deterministic dump of all directory state, sorted by line address:
     * the checker's sweep order and the tests' final-state comparisons.
     */
    std::vector<std::pair<Addr, Entry>>
    sortedEntries() const
    {
        return entries_.sorted();
    }

    /** Per-home-controller contention counters (observability). */
    struct HomeCounters
    {
        std::uint64_t requests = 0;    ///< transactions serialized here
        std::uint64_t queueCycles = 0; ///< total queuing delay imposed
    };

    const std::vector<HomeCounters> &homeCounters() const { return hctrs_; }

    /**
     * Register contention counters under "<prefix>.home<i>.*" plus
     * machine-wide totals; not cleared by reset(), only by resetStats().
     */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

  private:
    unsigned nnodes_;
    std::size_t lineBytes_;
    LatencyConfig lat_;
    LineTable<Entry> entries_;
    std::vector<Cycles> controllerFree_; // per home node
    std::vector<HomeCounters> hctrs_;    // per home node
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_DIRECTORY_HH
