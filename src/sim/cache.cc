#include "sim/cache.hh"

#include <cassert>
#include <stdexcept>

#include "obs/registry.hh"

namespace dss {
namespace sim {

namespace {

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), lineBytes_(cfg.lineBytes), history_(cfg.lineBytes)
{
    if (!isPow2(cfg.lineBytes) || !isPow2(cfg.sizeBytes))
        throw std::invalid_argument("cache size/line must be powers of two");
    if (cfg.assoc == 0 || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) != 0)
        throw std::invalid_argument("cache size not divisible by way size");
    numSets_ = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    if (!isPow2(numSets_))
        throw std::invalid_argument("number of sets must be a power of two");
    lines_.resize(numSets_ * cfg.assoc);
}

bool
Cache::isDirty(Addr addr) const
{
    const Line *l = find(addr);
    return l && l->dirty;
}

MissType
Cache::classifyMiss(Addr addr) const
{
    const std::uint8_t *h = history_.find(addr);
    if (!h)
        return MissType::Cold;
    return *h == kRemovedByCoherence ? MissType::Cohe : MissType::Conf;
}

Cache::Victim
Cache::fill(Addr addr, bool dirty)
{
    Addr la = lineAddrOf(addr);
    assert(!contains(la) && "fill of a resident line");
    Line *set = &lines_[setOf(la) * cfg_.assoc];
    Line *victim = &set[0];
    for (std::size_t w = 1; w < cfg_.assoc; ++w) {
        if (!victim->valid)
            break;
        if (!set[w].valid || set[w].lru < victim->lru)
            victim = &set[w];
    }
    ++ctrs_.fills;
    Victim out;
    if (victim->valid) {
        ++ctrs_.evictions;
        out.valid = true;
        out.dirty = victim->dirty;
        out.lineAddr = victim->tag;
    }
    victim->tag = la;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lru = ++stamp_;
    history_.get(la) = 0;
    return out;
}

bool
Cache::invalidate(Addr addr, bool coherence, bool *was_dirty)
{
    Line *l = find(addr);
    if (!l)
        return false;
    if (was_dirty)
        *was_dirty = l->dirty;
    l->valid = false;
    l->dirty = false;
    ++ctrs_.invalidations;
    if (coherence) {
        ++ctrs_.cohInvalidations;
        history_.get(addr) = kRemovedByCoherence;
    }
    return true;
}

void
Cache::clearCoherenceMark(Addr addr)
{
    if (std::uint8_t *h = history_.find(addr))
        *h = 0;
}

void
Cache::markDirty(Addr addr)
{
    Line *l = find(addr);
    assert(l && "markDirty on non-resident line");
    l->dirty = true;
}

void
Cache::markClean(Addr addr)
{
    Line *l = find(addr);
    assert(l && "markClean on non-resident line");
    l->dirty = false;
}

void
Cache::reset()
{
    for (Line &l : lines_)
        l = Line{};
    history_.clear();
    stamp_ = 0;
}

void
Cache::registerStats(obs::Registry &reg, const std::string &prefix) const
{
    auto counter = [&](const char *leaf, const std::uint64_t Counters::*f) {
        reg.addCounter(obs::metricName(prefix, leaf),
                       [this, f] { return ctrs_.*f; });
    };
    counter("lookups", &Counters::lookups);
    counter("hits", &Counters::hits);
    counter("fills", &Counters::fills);
    counter("evictions", &Counters::evictions);
    counter("invalidations", &Counters::invalidations);
    counter("coh_invalidations", &Counters::cohInvalidations);
    reg.addGauge(obs::metricName(prefix, "hit_rate"), [this] {
        return ctrs_.lookups
                   ? static_cast<double>(ctrs_.hits) /
                         static_cast<double>(ctrs_.lookups)
                   : 0.0;
    });
}

std::vector<Addr>
Cache::residentLines() const
{
    std::vector<Addr> out;
    for (const Line &l : lines_) {
        if (l.valid)
            out.push_back(l.tag);
    }
    return out;
}

} // namespace sim
} // namespace dss
