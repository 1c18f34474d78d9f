#include "obs/stats_json.hh"

namespace dss {
namespace obs {

Json
toJson(const sim::MissTable &t)
{
    Json out = Json::object();
    Json classes = Json::object();
    for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
        auto cls = static_cast<sim::DataClass>(c);
        if (t.byClass(cls) == 0)
            continue;
        Json row = Json::object();
        for (std::size_t m = 0; m < sim::kNumMissTypes; ++m) {
            auto mt = static_cast<sim::MissType>(m);
            row[std::string(sim::missTypeName(mt))] = t.of(cls, mt);
        }
        row["total"] = t.byClass(cls);
        classes[std::string(sim::dataClassName(cls))] = std::move(row);
    }
    out["byClass"] = std::move(classes);
    Json groups = Json::object();
    for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
        auto grp = static_cast<sim::ClassGroup>(g);
        if (t.byGroup(grp))
            groups[std::string(sim::classGroupName(grp))] = t.byGroup(grp);
    }
    out["byGroup"] = std::move(groups);
    out["total"] = t.total();
    return out;
}

Json
toJson(const sim::ProcStats &p)
{
    Json out = Json::object();
    out["busy"] = p.busy;
    out["memStall"] = p.memStall;
    out["syncStall"] = p.syncStall;
    out["totalCycles"] = p.totalCycles();
    Json groups = Json::object();
    for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
        auto grp = static_cast<sim::ClassGroup>(g);
        groups[std::string(sim::classGroupName(grp))] =
            p.memStallByGroup[g];
    }
    out["memStallByGroup"] = std::move(groups);
    out["reads"] = p.reads;
    out["writes"] = p.writes;
    out["assumedHitReads"] = p.assumedHitReads;
    out["l1Hits"] = p.l1Hits();
    out["l2Accesses"] = p.l2Accesses();
    out["l2Hits"] = p.l2Hits();
    out["wbOverflows"] = p.wbOverflows;
    out["prefetchesIssued"] = p.prefetchesIssued;
    out["prefetchesUseful"] = p.prefetchesUseful;
    out["l1MissRatePct"] = 100.0 * p.l1MissRate();
    out["l2GlobalMissRatePct"] = 100.0 * p.l2GlobalMissRate();
    out["l1Misses"] = toJson(p.l1Misses());
    out["l2Misses"] = toJson(p.l2Misses());
    return out;
}

Json
toJson(const sim::SimStats &s)
{
    Json out = Json::object();
    Json procs = Json::array();
    for (const sim::ProcStats &p : s.procs)
        procs.push(toJson(p));
    out["procs"] = std::move(procs);

    const sim::ProcStats agg = s.aggregate();
    out["aggregate"] = toJson(agg);
    out["executionTime"] = s.executionTime();

    // Fig 6a fractions — same arithmetic as harness::timeBreakdown().
    Json breakdown = Json::object();
    const double total = static_cast<double>(agg.totalCycles());
    breakdown["totalCycles"] = agg.totalCycles();
    breakdown["busyPct"] =
        total > 0 ? 100.0 * static_cast<double>(agg.busy) / total : 0.0;
    breakdown["memPct"] =
        total > 0 ? 100.0 * static_cast<double>(agg.memStall) / total : 0.0;
    breakdown["msyncPct"] =
        total > 0 ? 100.0 * static_cast<double>(agg.syncStall) / total
                  : 0.0;
    out["breakdown"] = std::move(breakdown);

    // Fig 6b fractions — same arithmetic as harness::memBreakdown().
    Json mem = Json::object();
    const double totalMem = static_cast<double>(agg.memStall);
    for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
        auto grp = static_cast<sim::ClassGroup>(g);
        mem[std::string(sim::classGroupName(grp))] =
            totalMem > 0
                ? 100.0 * static_cast<double>(agg.memStallByGroup[g]) /
                      totalMem
                : 0.0;
    }
    out["memByGroupPct"] = std::move(mem);
    return out;
}

Json
toJson(const sim::LevelConfig &l)
{
    Json out = Json::object();
    out["sizeBytes"] = l.sizeBytes;
    out["lineBytes"] = l.lineBytes;
    out["assoc"] = l.assoc;
    out["hitCycles"] = l.hitCycles;
    return out;
}

Json
toJson(const sim::LatencyConfig &l)
{
    Json out = Json::object();
    out["localMem"] = l.localMem;
    out["remote2Hop"] = l.remote2Hop;
    out["remote3Hop"] = l.remote3Hop;
    out["controllerOccupancy"] = l.controllerOccupancy;
    out["memBytesPerCycle"] = l.memBytesPerCycle;
    out["ctrlBytesPerCycle"] = l.ctrlBytesPerCycle;
    return out;
}

Json
toJson(const sim::MachineConfig &m)
{
    Json out = Json::object();
    out["nprocs"] = m.nprocs;
    Json levels = Json::array();
    for (const sim::LevelConfig &lc : m.levels)
        levels.push(toJson(lc));
    out["levels"] = std::move(levels);
    out["writeBufferEntries"] = m.writeBufferEntries;
    out["pageBytes"] = m.pageBytes;
    out["latency"] = toJson(m.lat);
    out["prefetchData"] = m.prefetchData;
    out["prefetchDegree"] = m.prefetchDegree;
    out["issueCyclesPerRef"] = m.issueCyclesPerRef;
    return out;
}

} // namespace obs
} // namespace dss
