/**
 * @file
 * Line-level memory profile: per-cache-line access/miss records with
 * true/false-sharing classification, hot-set conflict attribution and
 * structure symbolization.
 *
 * The Machine's ProcStats aggregate misses per data class; this profile
 * answers the next question the paper's Section 5 raises — *which lines*
 * inside a class ping-pong, and whether their coherence misses are true
 * sharing (the words written remotely are the words read) or false
 * sharing (victims of line-granularity invalidation only).
 *
 * The profile is the Machine's own attribution, not a model of it.
 * Attach one with Machine::setMemProfile and the access pipelines
 * (sim/machine.cc) count each event on its coherent-level line at the
 * statement that bumps the machine counter it refines. Every total with
 * a machine counterpart therefore equals it exactly:
 *  - reads / writes: ProcStats::reads / writes (a lock acquire's
 *    test&set is a read, a lock release a write);
 *  - cold / conf / coheTrue + coheFalse: the coherent level's read-miss
 *    table (ProcStats::cohMisses()), and coheTrue / coheFalse equal
 *    ProcStats::l2CoheTrue / l2CoheFalse;
 *  - hop3: the 3-hop column of ProcStats::hopsByGroup.
 * upgrades (stores and lock RMWs that hit a coherent-level copy they do
 * not own exclusively) has no machine counter of its own. The profile
 * sees the L1, timing and page placement like every other statistic,
 * and it repeats bit for bit when the same configuration is rerun.
 *
 * One profile describes one coherent-level geometry: setMemProfile
 * rejects a machine whose coherent line size or set count differs.
 */

#ifndef DSS_OBS_MEMPROF_HH
#define DSS_OBS_MEMPROF_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "sim/addr.hh"

namespace dss {
namespace sim {
struct MachineConfig;
} // namespace sim

namespace obs {

/** Everything recorded about one cache line. */
struct LineRecord
{
    sim::DataClass cls = sim::DataClass::Priv; ///< class of first access
    std::uint64_t reads = 0;  ///< includes lock acquire test&sets
    std::uint64_t writes = 0; ///< includes lock release stores
    std::uint64_t cold = 0;
    std::uint64_t conf = 0;
    std::uint64_t coheTrue = 0;
    std::uint64_t coheFalse = 0;
    std::uint64_t upgrades = 0; ///< stores/RMWs on a non-exclusive copy
    std::uint64_t hop3 = 0;     ///< 3-hop directory transactions

    std::uint64_t accesses() const { return reads + writes; }

    std::uint64_t
    misses() const
    {
        return cold + conf + coheTrue + coheFalse;
    }
};

class MemProfile
{
  public:
    /** An empty profile for the coherent-level geometry of @p cfg. */
    explicit MemProfile(const sim::MachineConfig &cfg);

    /**
     * Machine hook: count one event of an access to @p addr, in the field
     * @p field of its coherent line's record and of @p cls's aggregate.
     */
    void count(sim::Addr addr, sim::DataClass cls,
               std::uint64_t LineRecord::*field);

    /** Machine hook: attribute one conflict miss to cache set @p set. */
    void countConflictSet(std::size_t set) { ++confBySet_[set]; }

    std::size_t lineBytes() const { return lineBytes_; }
    std::size_t numSets() const { return confBySet_.size(); }

    /** Per-line records, keyed by line address. */
    const std::unordered_map<sim::Addr, LineRecord> &lines() const
    {
        return lines_;
    }

    /** Aggregate record over every line (totals row). */
    LineRecord totals() const;

    /** Conflict misses attributed to cache set @p s. */
    std::uint64_t confOfSet(std::size_t s) const { return confBySet_[s]; }

    /**
     * Serialize the profile:
     *  - "lines": top @p top_n lines ranked by misses (desc, then
     *    address asc), each with its symbol — resolved through
     *    @p symbols when given, falling back to the data-class name.
     *  - "classes": per-data-class access/miss/true/false/upgrade split.
     *  - "sets": top @p top_n conflict-miss sets (desc, then set asc).
     *  - "totals": whole-profile sums.
     * Byte-stable for identical inputs.
     */
    Json toJson(unsigned top_n, const RegionMap *symbols = nullptr) const;

  private:
    std::size_t lineBytes_;
    unsigned nprocs_;
    std::unordered_map<sim::Addr, LineRecord> lines_;
    /** Per-data-class aggregate (same fields as a line record). */
    LineRecord classes_[sim::kNumDataClasses];
    std::vector<std::uint64_t> confBySet_;
};

} // namespace obs
} // namespace dss

#endif // DSS_OBS_MEMPROF_HH
