#include "obs/memprof.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/machine.hh"

namespace dss {
namespace obs {

MemProfile::MemProfile(const sim::MachineConfig &cfg)
    : lineBytes_(cfg.coherent().lineBytes), nprocs_(cfg.nprocs),
      confBySet_(cfg.coherent().sizeBytes /
                 (cfg.coherent().lineBytes * cfg.coherent().assoc))
{
}

void
MemProfile::count(sim::Addr addr, sim::DataClass cls,
                  std::uint64_t LineRecord::*field)
{
    auto [it, fresh] = lines_.try_emplace(addr & ~(lineBytes_ - 1));
    if (fresh)
        it->second.cls = cls;
    ++(it->second.*field);
    ++(classes_[static_cast<std::size_t>(cls)].*field);
}

namespace {

/** Every counted field of a record, in report order (after accesses). */
constexpr std::pair<const char *, std::uint64_t LineRecord::*> kFields[] = {
    {"reads", &LineRecord::reads},
    {"writes", &LineRecord::writes},
    {"cold", &LineRecord::cold},
    {"conf", &LineRecord::conf},
    {"coheTrue", &LineRecord::coheTrue},
    {"coheFalse", &LineRecord::coheFalse},
    {"upgrades", &LineRecord::upgrades},
    {"hop3", &LineRecord::hop3},
};

void
fillRecord(Json &j, const LineRecord &r)
{
    j["accesses"] = r.accesses();
    for (const auto &[name, field] : kFields)
        j[name] = r.*field;
}

Json
recordJson(const LineRecord &r)
{
    Json j = Json::object();
    fillRecord(j, r);
    return j;
}

} // namespace

LineRecord
MemProfile::totals() const
{
    LineRecord t;
    for (const auto &[addr, r] : lines_) {
        (void)addr;
        for (const auto &[name, field] : kFields)
            t.*field += r.*field;
    }
    return t;
}

Json
MemProfile::toJson(unsigned top_n, const RegionMap *symbols) const
{
    Json doc = Json::object();
    doc["lineBytes"] = static_cast<std::uint64_t>(lineBytes_);
    doc["nprocs"] = static_cast<std::uint64_t>(nprocs_);
    doc["linesTracked"] = static_cast<std::uint64_t>(lines_.size());

    // Hot lines: by misses desc, then address asc (total order => stable).
    std::vector<std::pair<sim::Addr, const LineRecord *>> ranked;
    ranked.reserve(lines_.size());
    for (const auto &[addr, r] : lines_) {
        if (r.misses() || r.upgrades)
            ranked.emplace_back(addr, &r);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->misses() != b.second->misses())
                      return a.second->misses() > b.second->misses();
                  return a.first < b.first;
              });
    if (ranked.size() > top_n)
        ranked.resize(top_n);
    Json lines = Json::array();
    for (const auto &[addr, r] : ranked) {
        Json out = Json::object();
        out["addr"] = addr;
        std::string sym;
        if (symbols)
            sym = symbols->resolve(addr);
        if (sym.empty())
            sym = std::string(sim::dataClassName(r->cls));
        out["symbol"] = std::move(sym);
        out["class"] = std::string(sim::dataClassName(r->cls));
        fillRecord(out, *r);
        lines.push(std::move(out));
    }
    doc["lines"] = std::move(lines);

    Json classes = Json::object();
    for (std::size_t cidx = 0; cidx < sim::kNumDataClasses; ++cidx) {
        const LineRecord &r = classes_[cidx];
        if (!r.accesses())
            continue;
        classes[std::string(
            sim::dataClassName(static_cast<sim::DataClass>(cidx)))] =
            recordJson(r);
    }
    doc["classes"] = std::move(classes);

    // Hot sets: conflict misses by set, desc then set asc.
    std::vector<std::pair<std::size_t, std::uint64_t>> sets;
    for (std::size_t s = 0; s < confBySet_.size(); ++s) {
        if (confBySet_[s])
            sets.emplace_back(s, confBySet_[s]);
    }
    std::sort(sets.begin(), sets.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    if (sets.size() > top_n)
        sets.resize(top_n);
    Json jsets = Json::array();
    for (const auto &[s, n] : sets) {
        Json j = Json::object();
        j["set"] = static_cast<std::uint64_t>(s);
        j["conf"] = n;
        jsets.push(std::move(j));
    }
    doc["sets"] = std::move(jsets);

    doc["totals"] = recordJson(totals());
    return doc;
}

} // namespace obs
} // namespace dss
