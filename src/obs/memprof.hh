/**
 * @file
 * Line-level memory profiler: per-cache-line access/miss histories with
 * true/false-sharing classification, hot-set conflict attribution and
 * structure symbolization.
 *
 * The Machine's ProcStats aggregate misses per data class; this profiler
 * answers the next question the paper's Section 5 raises — *which lines*
 * inside a class ping-pong, and whether their coherence misses are true
 * sharing (the words written remotely are the words read) or false
 * sharing (victims of line-granularity invalidation only).
 *
 * Determinism: the profiler never observes the Machine. It replays the
 * captured per-processor trace streams itself, in a canonical
 * position-major round-robin order (position 0 of every processor, then
 * position 1, ...), against its own model caches and SharingTracker.
 * Because traces are pure per-processor artifacts of the (read-only
 * TPC-D) database engine, the profile is a pure function of the traces:
 * bit-identical across reruns and independent of the machine's timing.
 *
 * The model is the machine's L2 level without L1 filtering or timing:
 * one model L2 per processor (machine geometry), MESI-style exclusivity
 * (a write invalidates every remote copy), word-granular last-writer
 * masks for the true/false split, and a dirty-owner map for 3-hop
 * detection. Absolute event counts therefore differ slightly from the
 * Machine's ProcStats (the L1 absorbs some read hits); the profile's
 * job is *ranking and classification*, which the L2-level replay
 * captures exactly.
 */

#ifndef DSS_OBS_MEMPROF_HH
#define DSS_OBS_MEMPROF_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "sim/addr.hh"
#include "sim/cache.hh"
#include "sim/sharing.hh"
#include "sim/trace.hh"

namespace dss {
namespace obs {

/** Geometry of the profiler's model replay. */
struct MemProfileConfig
{
    sim::CacheConfig l2;  ///< model cache geometry (use the machine's L2)
    unsigned nprocs = 4;
    /** Page size for home-node attribution (3-hop detection). */
    std::size_t pageBytes = 8 * 1024;
};

/** Everything recorded about one cache line. */
struct LineRecord
{
    sim::DataClass cls = sim::DataClass::Priv; ///< class of first access
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0; ///< includes lock acquire/release stores
    std::uint64_t cold = 0;
    std::uint64_t conf = 0;
    std::uint64_t coheTrue = 0;
    std::uint64_t coheFalse = 0;
    std::uint64_t upgrades = 0; ///< writes that hit a non-exclusive copy
    std::uint64_t hop3 = 0;     ///< misses served dirty from a third node

    std::uint64_t
    misses() const
    {
        return cold + conf + coheTrue + coheFalse;
    }
};

class MemProfile
{
  public:
    explicit MemProfile(const MemProfileConfig &cfg);

    /**
     * Replay @p traces (indexed by processor) through the model,
     * accumulating into the profile. Callable repeatedly: warm-start
     * chains keep the model caches warm across calls, mirroring the
     * Machine's warm runs.
     */
    void addTraces(const std::vector<const sim::TraceStream *> &traces);

    /** Per-line records, keyed by line address (deterministic order). */
    const std::map<sim::Addr, LineRecord> &lines() const { return lines_; }

    /** Aggregate record over every line (totals row). */
    LineRecord totals() const;

    /** Conflict misses attributed to cache set @p s. */
    std::uint64_t confOfSet(std::size_t s) const { return confBySet_[s]; }

    const MemProfileConfig &config() const { return cfg_; }

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
    void replayOne(unsigned p, const sim::TraceEntry &e);
    void read(unsigned p, sim::Addr addr, sim::DataClass cls,
              unsigned size);
    void write(unsigned p, sim::Addr addr, sim::DataClass cls,
               unsigned size);
    LineRecord &recordOf(sim::Addr line, sim::DataClass cls);
    void classifyMiss(LineRecord &rec, unsigned p, sim::Addr addr,
                      sim::Addr line, unsigned size, sim::MissType mt);
    bool isThreeHop(unsigned p, sim::Addr line) const;

    MemProfileConfig cfg_;
    std::vector<std::unique_ptr<sim::Cache>> caches_; ///< one model L2/proc
    sim::SharingTracker tracker_;
    /** line address -> processor holding it dirty (model MESI owner). */
    std::map<sim::Addr, unsigned> dirtyOwner_;
    std::map<sim::Addr, LineRecord> lines_;
    /** Per-data-class aggregate (same fields as a line record). */
    LineRecord classes_[sim::kNumDataClasses];
    std::vector<std::uint64_t> confBySet_;
};

} // namespace obs
} // namespace dss

#endif // DSS_OBS_MEMPROF_HH
