/**
 * @file
 * Per-page access histogram collector — the first pass of the profile
 * placement policy (sim/placement.hh).
 *
 * A PageProfile counts, for every shared page, how many traced
 * references each processor makes to it. The counts are accumulated
 * straight from TraceStreams (order-independent sums, so the result
 * does not depend on the replay's interleaving), serialized to JSON by the
 * --page-profile flag, and consumed by --placement=profile:<path> in a
 * second run, which homes each page at its majority accessor.
 */

#ifndef DSS_OBS_PAGEPROF_HH
#define DSS_OBS_PAGEPROF_HH

#include <cstdint>
#include <map>
#include <vector>

#include "obs/json.hh"
#include "sim/arena.hh"
#include "sim/placement.hh"
#include "sim/trace.hh"

namespace dss {
namespace obs {

class PageProfile
{
  public:
    /**
     * @param page_bytes Placement granularity (the machine's page size).
     * @param private_base Addresses at or above this are private and not
     *        profiled: every policy homes them at their owner already.
     */
    explicit PageProfile(std::size_t page_bytes = 8 * 1024,
                         sim::Addr private_base =
                             sim::AddressSpace::kPrivateBase);

    /**
     * Accumulate every non-Busy shared reference of @p traces, indexing
     * processors by trace position. Call once per simulated run (the
     * harness runner does, before retries, so each run counts once).
     */
    void addTraces(const std::vector<const sim::TraceStream *> &traces);

    /** Distinct shared pages seen so far. */
    std::size_t pageCount() const { return counts_.size(); }

    std::size_t pageBytes() const { return pageBytes_; }

    /** The histogram in the profile policy's input form. */
    std::vector<sim::PageAccessCounts> toCounts() const;

    /**
     * {"page_bytes": N, "pages": [{"page": addr, "counts": [..]}, ...]},
     * pages sorted by address — byte-stable for identical inputs.
     */
    Json toJson() const;

    /**
     * Parse a histogram document back into policy input. Throws
     * std::runtime_error on malformed documents or when @p expect_page_bytes
     * (if nonzero) does not match the document's page_bytes.
     */
    static std::vector<sim::PageAccessCounts>
    parse(const Json &doc, std::size_t expect_page_bytes = 0);

  private:
    std::size_t pageBytes_;
    sim::Addr privateBase_;
    /** page base address -> per-processor reference counts (ordered for
     * deterministic serialization). */
    std::map<sim::Addr, std::vector<std::uint64_t>> counts_;
};

} // namespace obs
} // namespace dss

#endif // DSS_OBS_PAGEPROF_HH
