/**
 * @file
 * Content-addressed trace cache for the query-stream scheduler.
 *
 * Capturing a query instance's reference trace means executing the query
 * against the TPC-D database — by far the most expensive host-side step
 * of a stream run. But Workload::streamTrace is a *pure* function of
 * (query, param_seed, proc): the canonical transaction id, the pre-warmed
 * lock hash and the post-capture xid sweep guarantee the same arguments
 * always yield a byte-identical stream (see harness/workload.hh). So a
 * stream that repeats (query, params, proc) combinations — the common
 * case for closed-loop client mixes — can capture each combination once
 * and replay the cached stream for every later instance, with
 * bit-identical simulation results (test_sched.cc proves this).
 *
 * The cache is keyed by the capture arguments and grows without bound.
 * A stored stream never changes after capture, so its FNV-1a content
 * hash (TraceStream::contentHash) is computed once, when the miss
 * stores it, and every later fetch reads the stored value. Reports — and
 * the purity regression test — use that hash to verify that a
 * re-capture of the same key reproduces the same bytes;
 * contentHashOf() re-hashes the stored bytes, for checking the stored
 * value.
 */

#ifndef DSS_SCHED_TRACE_CACHE_HH
#define DSS_SCHED_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "sim/trace.hh"
#include "tpcd/queries.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sched {

class TraceCache
{
  public:
    /** The capture arguments a cached stream is addressed by. */
    struct Key
    {
        tpcd::QueryId query;
        std::uint64_t paramSeed;
        sim::ProcId proc;

        bool operator<(const Key &o) const
        {
            if (query != o.query)
                return query < o.query;
            if (paramSeed != o.paramSeed)
                return paramSeed < o.paramSeed;
            return proc < o.proc;
        }
    };

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t entries = 0;      ///< distinct keys stored
        std::uint64_t traceEntries = 0; ///< total TraceEntry records held
    };

    /** A stored stream and its content hash, computed at capture. */
    struct Entry
    {
        sim::TraceStream stream;
        std::uint64_t hash = 0;
    };

    /** Produces the stream for a key on a miss (calls streamTrace). */
    using Capture = std::function<sim::TraceStream()>;

    /**
     * The entry for @p key: on a hit, the stored one (capture not
     * invoked); on a miss, @p capture() runs and its result is stored
     * with its hash. The returned reference stays valid for the cache's
     * lifetime (std::map nodes are stable).
     */
    const Entry &fetch(const Key &key, const Capture &capture);

    /** The stored stream for @p key, or nullptr if absent. */
    const sim::TraceStream *lookup(const Key &key) const;

    const Stats &stats() const { return stats_; }

    /** FNV-1a content hash of the stored stream's bytes, hashed anew on
     * every call (Entry::hash is the capture-time value); 0 if absent. */
    std::uint64_t contentHashOf(const Key &key) const;

    /** Export cache.{hits,misses,entries,trace_entries}. */
    void registerStats(obs::Registry &reg,
                       const std::string &prefix = "cache") const;

  private:
    std::map<Key, Entry> entries_;
    Stats stats_;
};

} // namespace sched
} // namespace dss

#endif // DSS_SCHED_TRACE_CACHE_HH
