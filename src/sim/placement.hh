/**
 * @file
 * Pluggable NUMA page-placement policies.
 *
 * The paper's headline cost is remote memory: 2-hop (249-cycle) and
 * 3-hop (351-cycle) transactions dominate stall time, and its
 * conclusions name data placement as the lever a CC-NUMA system has
 * against them. The home node of every page is the policy's decision;
 * the Machine asks it on every directory transaction:
 *
 *   interleave       page i -> node i mod N (bit-identical to the
 *                    historical hardwired rule; the default)
 *   first-touch      a shared page is homed at the first processor to
 *                    reference it, resolved at trace position (see
 *                    beginRun) so the outcome depends on the traces
 *                    alone, never on simulated timing
 *   class-affinity   pages whose dominant MemArena DataClass is metadata
 *                    (buffer descriptors, lookup hash, lock words, ...)
 *                    are homed at one node; Data/Index pages interleave
 *   profile          a shared page is homed at its majority accessor —
 *                    the processor whose trace references it most —
 *                    counted over the run's own traces in beginRun
 *
 * Every policy resolves to the same representation: a flat page-index ->
 * home-node table (precomputed at construction; extended per run only by
 * first-touch and profile), so the homeOf hot path is a shift and a
 * bounds-checked vector load — with the policy's rule computed on the
 * fly for pages past the table. Private addresses are owner-homed under
 * every policy (the paper's OS already does per-process local
 * allocation; the policies only govern the shared segment).
 */

#ifndef DSS_SIM_PLACEMENT_HH
#define DSS_SIM_PLACEMENT_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/addr.hh"
#include "sim/arena.hh"

namespace dss {
namespace sim {

class TraceStream;

enum class PlacementKind : std::uint8_t {
    Interleave,
    FirstTouch,
    ClassAffinity,
    Profile,
};

/** Canonical flag-value name ("interleave", "first-touch", ...). */
const char *placementKindName(PlacementKind kind);

/**
 * Parsed form of the --placement=<name>[:node] flag value.
 * Only class-affinity takes an argument: its metadata home node
 * (default 0), a decimal below kMaxProcs. Whether the machine has that
 * node is checked once the machine is known (harness::makePlacement).
 */
struct PlacementSpec
{
    PlacementKind kind = PlacementKind::Interleave;
    std::optional<ProcId> node{}; ///< class-affinity's node, if named

    /** Parse a flag value; nullopt on unknown names or malformed args. */
    static std::optional<PlacementSpec> parse(std::string_view text);

    /** One-line list of accepted values, for usage messages. */
    static const char *help();

    /** Round-trip back to "<name>[:node]". */
    std::string str() const;
};

class PlacementPolicy
{
  public:
    /**
     * The machine shape a policy maps over. Private addresses follow
     * AddressSpace's fixed layout (kPrivateBase, kPrivateStride).
     */
    struct Geometry
    {
        unsigned nnodes = 4;
        std::size_t pageBytes = 8 * 1024; ///< a power of two
    };

    /**
     * Safety cap on the flat table: pages at or beyond this index fall
     * back to the policy's rule computed on the fly (synthetic test
     * traces may place a lock word anywhere in the 38-bit shared range;
     * real workloads use a few thousand pages).
     */
    static constexpr std::size_t kMaxTablePages = std::size_t{1} << 20;

    static std::unique_ptr<PlacementPolicy> interleave(const Geometry &g);
    static std::unique_ptr<PlacementPolicy> firstTouch(const Geometry &g);
    /**
     * @param space Arena class maps driving the page classification; must
     *        outlive the policy.
     * @param meta_node Home of every metadata-dominated page.
     */
    static std::unique_ptr<PlacementPolicy>
    classAffinity(const Geometry &g, const AddressSpace &space,
                  ProcId meta_node = 0);
    static std::unique_ptr<PlacementPolicy> profile(const Geometry &g);

    /** Build any spec; class-affinity requires @p space (else throws). */
    static std::unique_ptr<PlacementPolicy>
    make(const PlacementSpec &spec, const Geometry &g,
         const AddressSpace *space);

    PlacementKind kind() const { return kind_; }
    const char *name() const { return placementKindName(kind_); }
    const Geometry &geometry() const { return g_; }

    /** Home node of the page containing @p addr (the hot path). */
    ProcId
    homeOf(Addr addr) const
    {
        if (addr >= AddressSpace::kPrivateBase) {
            const Addr node =
                (addr - AddressSpace::kPrivateBase) >> kPrivateShift;
            return node < g_.nnodes ? static_cast<ProcId>(node)
                                    : static_cast<ProcId>(g_.nnodes - 1);
        }
        const std::size_t idx = pageIndexOf(addr);
        if (idx < table_.size())
            return table_[idx];
        return ruleHome(idx);
    }

    /**
     * Per-run resolution hook, called by the Machine before the first
     * step. A no-op for interleave and class-affinity (they precompute
     * their table at construction, and their fallback rule returns the
     * same home as a table slot would). For first-touch and profile it
     * grows the flat table to cover every shared page the traces
     * reference, then claims each still-unclaimed page:
     *
     *  - first-touch: for the first processor to reference it. The scan
     *    iterates trace positions in the outer loop and processors in
     *    the inner loop, so "first" is defined purely by the traces,
     *    never by simulated time.
     *  - profile: for the processor that references it most (its
     *    non-Busy references per page, summed over the run's traces);
     *    ties go to the lower processor id.
     *
     * Either way the same trace set yields the same homes whatever the
     * machine's timing. Claims persist across runs (a page's first claim
     * wins), which is what the warm-start sequences expect of a real OS.
     */
    void beginRun(const std::vector<const TraceStream *> &traces);

    /** Pages currently covered by the flat table (tests/diagnostics). */
    std::size_t coveredPages() const { return table_.size(); }

    /** Pages claimed so far (first-touch, profile). */
    std::size_t claimedPages() const { return claimed_; }

  private:
    static_assert(std::has_single_bit(AddressSpace::kPrivateStride));
    /** log2(kPrivateStride): a private address's owner node. */
    static constexpr int kPrivateShift =
        std::countr_zero(AddressSpace::kPrivateStride);

    /** @throws std::invalid_argument on zero nodes or a page size that
     * is not a power of two. */
    PlacementPolicy(PlacementKind kind, const Geometry &g);

    std::size_t
    pageIndexOf(Addr addr) const
    {
        return static_cast<std::size_t>(addr >> pageShift_);
    }

    /** The policy's rule for an unclaimed page index (cold path). */
    ProcId ruleHome(std::size_t page_idx) const;

    /** Extend the table through @p page_idx using ruleHome. */
    void ensureCovered(std::size_t page_idx);

    /** Home unresolved page @p page_idx (covered) at @p home and mark it
     * resolved. */
    void claim(std::size_t page_idx, ProcId home);

    /** profile: claim every unresolved page for its majority accessor. */
    void claimMajorities(const std::vector<const TraceStream *> &traces);

    PlacementKind kind_;
    Geometry g_;
    int pageShift_ = 0; ///< log2(pageBytes)

    std::vector<ProcId> table_; ///< page index -> home node
    /** 1 = table_[i] is a claim, not the fallback rule */
    std::vector<std::uint8_t> resolved_;
    std::size_t claimed_ = 0;

    const AddressSpace *space_ = nullptr; ///< class-affinity only
    ProcId metaNode_ = 0;                 ///< class-affinity only
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_PLACEMENT_HH
