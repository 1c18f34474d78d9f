#include "sched/trace_cache.hh"

#include <utility>

#include "obs/registry.hh"

namespace dss {
namespace sched {

const TraceCache::Entry &
TraceCache::fetch(const Key &key, const Capture &capture)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    Entry e{capture()};
    e.hash = e.stream.contentHash();
    stats_.traceEntries += e.stream.entries().size();
    ++stats_.entries;
    return entries_.emplace(key, std::move(e)).first->second;
}

const sim::TraceStream *
TraceCache::lookup(const Key &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.stream;
}

std::uint64_t
TraceCache::contentHashOf(const Key &key) const
{
    const sim::TraceStream *s = lookup(key);
    return s ? s->contentHash() : 0;
}

void
TraceCache::registerStats(obs::Registry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(obs::metricName(prefix, "hits"),
                   [this] { return stats_.hits; });
    reg.addCounter(obs::metricName(prefix, "misses"),
                   [this] { return stats_.misses; });
    reg.addCounter(obs::metricName(prefix, "entries"),
                   [this] { return stats_.entries; });
    reg.addCounter(obs::metricName(prefix, "trace_entries"),
                   [this] { return stats_.traceEntries; });
}

} // namespace sched
} // namespace dss
