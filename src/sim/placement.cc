#include "sim/placement.hh"

#include <algorithm>
#include <charconv>
#include <map>
#include <stdexcept>

#include "sim/trace.hh"

namespace dss {
namespace sim {

const char *
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Interleave: return "interleave";
      case PlacementKind::FirstTouch: return "first-touch";
      case PlacementKind::ClassAffinity: return "class-affinity";
      case PlacementKind::Profile: return "profile";
    }
    return "?";
}

std::optional<PlacementSpec>
PlacementSpec::parse(std::string_view text)
{
    PlacementSpec spec;
    const std::size_t colon = text.find(':');
    const std::string_view name = text.substr(0, colon);
    const std::string_view arg = colon == std::string_view::npos
                                     ? std::string_view()
                                     : text.substr(colon + 1);

    if (name == "interleave" || name == "first-touch" ||
        name == "profile") {
        spec.kind = name == "interleave"    ? PlacementKind::Interleave
                    : name == "first-touch" ? PlacementKind::FirstTouch
                                            : PlacementKind::Profile;
        if (!arg.empty())
            return std::nullopt; // these take no argument
        return spec;
    }
    if (name == "class-affinity") {
        spec.kind = PlacementKind::ClassAffinity;
        if (!arg.empty()) {
            // Digits only, as every count flag: from_chars takes no sign,
            // space or base prefix and reports overflow.
            ProcId node = 0;
            const char *end = arg.data() + arg.size();
            const auto [ptr, ec] = std::from_chars(arg.data(), end, node);
            if (ec != std::errc{} || ptr != end || node >= kMaxProcs)
                return std::nullopt;
            spec.node = node;
        }
        return spec;
    }
    return std::nullopt;
}

const char *
PlacementSpec::help()
{
    return "interleave, first-touch, class-affinity[:node], profile";
}

std::string
PlacementSpec::str() const
{
    std::string out = placementKindName(kind);
    if (node) {
        out += ':';
        out += std::to_string(*node);
    }
    return out;
}

PlacementPolicy::PlacementPolicy(PlacementKind kind, const Geometry &g)
    : kind_(kind), g_(g), pageShift_(std::countr_zero(g.pageBytes))
{
    if (g_.nnodes == 0 || !std::has_single_bit(g_.pageBytes))
        throw std::invalid_argument("placement: degenerate geometry");
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::interleave(const Geometry &g)
{
    return std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::Interleave, g));
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::firstTouch(const Geometry &g)
{
    return std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::FirstTouch, g));
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::classAffinity(const Geometry &g, const AddressSpace &space,
                               ProcId meta_node)
{
    if (meta_node >= g.nnodes)
        throw std::invalid_argument(
            "placement: class-affinity node out of range");
    auto p = std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::ClassAffinity, g));
    p->space_ = &space;
    p->metaNode_ = meta_node;
    // Eagerly cover the allocated shared segment so the classification
    // (which walks granule tags) runs once here, not per access.
    const MemArena &shared = space.shared();
    if (shared.used() > 0) {
        p->ensureCovered(
            static_cast<std::size_t>(shared.base() + shared.used() - 1) /
            g.pageBytes);
    }
    return p;
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::profile(const Geometry &g)
{
    return std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::Profile, g));
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::make(const PlacementSpec &spec, const Geometry &g,
                      const AddressSpace *space)
{
    switch (spec.kind) {
      case PlacementKind::Interleave:
        return interleave(g);
      case PlacementKind::FirstTouch:
        return firstTouch(g);
      case PlacementKind::ClassAffinity: {
        if (!space)
            throw std::runtime_error(
                "placement: class-affinity needs an AddressSpace");
        return classAffinity(g, *space, spec.node.value_or(0));
      }
      case PlacementKind::Profile:
        return profile(g);
    }
    throw std::runtime_error("placement: unknown policy kind");
}

ProcId
PlacementPolicy::ruleHome(std::size_t page_idx) const
{
    const auto rr = static_cast<ProcId>(page_idx % g_.nnodes);
    switch (kind_) {
      case PlacementKind::Interleave:
      case PlacementKind::FirstTouch:
      case PlacementKind::Profile:
        // First-touch and profile pages start on the interleave rule and
        // move to their claimant when beginRun claims them; a page no
        // trace ever references keeps the fallback.
        return rr;
      case PlacementKind::ClassAffinity: {
        // Pages whose dominant arena class is metadata (descriptors,
        // hashes, lock words) get the affinity node; data and index
        // pages stay interleaved for bandwidth. Unmapped shared pages
        // (synthetic test traces) also report MetaOther, but they carry
        // no engine metadata — keep them interleaved.
        const Addr page = static_cast<Addr>(page_idx) * g_.pageBytes;
        const MemArena &shared = space_->shared();
        if (page + g_.pageBytes <= shared.base() ||
            page >= shared.base() + shared.used())
            return rr;
        return isMetadataClass(space_->pageClassOf(page, g_.pageBytes))
                   ? metaNode_
                   : rr;
      }
    }
    return rr;
}

void
PlacementPolicy::ensureCovered(std::size_t page_idx)
{
    if (page_idx >= kMaxTablePages)
        page_idx = kMaxTablePages - 1;
    if (page_idx < table_.size())
        return;
    const std::size_t old = table_.size();
    table_.resize(page_idx + 1);
    resolved_.resize(page_idx + 1, 0);
    for (std::size_t i = old; i < table_.size(); ++i)
        table_[i] = ruleHome(i);
}

void
PlacementPolicy::claim(std::size_t page_idx, ProcId home)
{
    table_[page_idx] = home;
    resolved_[page_idx] = 1;
    ++claimed_;
}

void
PlacementPolicy::beginRun(const std::vector<const TraceStream *> &traces)
{
    // Only first-touch and profile need to look at the traces. The other
    // policies precompute their table at construction (class-affinity
    // covers the allocated arena span) and their ruleHome fallback
    // returns the same answer as a table slot would, so scanning every
    // entry per run would buy nothing — and the scan is O(trace), which
    // BM_MachineReplay shows directly as lost replay throughput.
    if (kind_ != PlacementKind::FirstTouch &&
        kind_ != PlacementKind::Profile)
        return;

    // Pass 1: table coverage. Every shared page any trace touches gets a
    // slot so pass 2 can claim it.
    std::size_t max_idx = 0;
    bool any = false;
    for (const TraceStream *t : traces) {
        if (!t)
            continue;
        for (const TraceEntry &e : t->entries()) {
            if (e.op == Op::Busy || e.addr >= AddressSpace::kPrivateBase)
                continue;
            max_idx = std::max(max_idx, pageIndexOf(e.addr));
            any = true;
        }
    }
    if (any)
        ensureCovered(max_idx);

    if (kind_ == PlacementKind::Profile) {
        claimMajorities(traces);
        return;
    }

    // Pass 2: first-touch claims, in (trace position, processor) order.
    // Position-major iteration makes "first" a pure function of the
    // traces, independent of simulated timing.
    std::size_t longest = 0;
    for (const TraceStream *t : traces)
        if (t)
            longest = std::max(longest, t->entries().size());
    for (std::size_t pos = 0; pos < longest; ++pos) {
        for (std::size_t p = 0; p < traces.size(); ++p) {
            if (!traces[p] || pos >= traces[p]->entries().size())
                continue;
            const TraceEntry &e = traces[p]->entries()[pos];
            if (e.op == Op::Busy || e.addr >= AddressSpace::kPrivateBase)
                continue;
            const std::size_t idx = pageIndexOf(e.addr);
            if (idx >= table_.size() || resolved_[idx])
                continue;
            claim(idx, static_cast<ProcId>(
                           std::min<std::size_t>(p, g_.nnodes - 1)));
        }
    }
}

void
PlacementPolicy::claimMajorities(
    const std::vector<const TraceStream *> &traces)
{
    // Per unresolved page, each processor's reference count. Counts are
    // sums, so the homes do not depend on the order of the scan.
    const std::size_t nprocs =
        std::min<std::size_t>(traces.size(), g_.nnodes);
    std::map<std::size_t, std::vector<std::uint64_t>> counts;
    for (std::size_t p = 0; p < nprocs; ++p) {
        if (!traces[p])
            continue;
        for (const TraceEntry &e : traces[p]->entries()) {
            if (e.op == Op::Busy || e.addr >= AddressSpace::kPrivateBase)
                continue;
            const std::size_t idx = pageIndexOf(e.addr);
            if (idx >= table_.size() || resolved_[idx])
                continue;
            std::vector<std::uint64_t> &row = counts[idx];
            row.resize(nprocs);
            ++row[p];
        }
    }
    // max_element returns the first maximum: ties go to the lower
    // processor id.
    for (const auto &[idx, row] : counts)
        claim(idx, static_cast<ProcId>(
                       std::max_element(row.begin(), row.end()) -
                       row.begin()));
}

} // namespace sim
} // namespace dss
