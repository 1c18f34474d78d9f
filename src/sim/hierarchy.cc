#include "sim/hierarchy.hh"

#include "sim/error.hh"
#include "sim/machine.hh"

namespace dss {
namespace sim {

namespace {

bool
isPow2(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Structured rejection: every validation failure names the machine
 * field it faulted on, so guardedMain's error JSON is actionable. */
[[noreturn]] void
reject(const std::string &what, const std::string &field,
       std::uint64_t value)
{
    obs::Json dump = obs::Json::object();
    dump["error"] = "invalid machine config";
    dump["field"] = field;
    dump["value"] = value;
    throw SimError("invalid machine config: " + what, std::move(dump));
}

} // namespace

std::string
levelName(std::size_t lvl)
{
    std::string name = "l";
    name += std::to_string(lvl + 1);
    return name;
}

LevelChain
paperLevels()
{
    LevelConfig l1;
    l1.sizeBytes = 4 * 1024;
    l1.lineBytes = 32;
    l1.assoc = 1;
    l1.hitCycles = 1; // the no-stall L1 hit
    LevelConfig l2;
    l2.sizeBytes = 128 * 1024;
    l2.lineBytes = 64;
    l2.assoc = 2;
    l2.hitCycles = 16; // the paper's L2 round trip
    return {l1, l2};
}

void
validateLevel(const LevelConfig &level, const std::string &name)
{
    if (!isPow2(level.sizeBytes))
        reject(name + " size must be a power of two", name + ".sizeBytes",
               level.sizeBytes);
    if (!isPow2(level.lineBytes))
        reject(name + " line must be a power of two", name + ".lineBytes",
               level.lineBytes);
    if (level.lineBytes > level.sizeBytes)
        reject(name + " line is larger than the cache", name + ".lineBytes",
               level.lineBytes);
    if (level.assoc == 0)
        reject(name + " associativity must be at least 1", name + ".assoc",
               level.assoc);
    const std::size_t way_bytes = level.assoc * level.lineBytes;
    if (level.sizeBytes % way_bytes != 0)
        reject(name + " ways do not divide the cache size", name + ".assoc",
               level.assoc);
    if (!isPow2(level.sizeBytes / way_bytes))
        reject(name + " set count must be a power of two", name + ".assoc",
               level.assoc);
}

void
validateLevels(const LevelChain &levels)
{
    if (levels.size() < 2)
        reject("a hierarchy needs at least two levels", "levels",
               levels.size());
    if (levels.size() > kMaxCacheLevels)
        reject("a hierarchy has at most " +
                   std::to_string(kMaxCacheLevels) + " levels",
               "levels", levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i)
        validateLevel(levels[i], levelName(i));
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
        const std::string name = levelName(i + 1);
        if (levels[i + 1].lineBytes % levels[i].lineBytes != 0)
            reject(levelName(i) + " line must divide the " + name +
                       " line (strict inclusion)",
                   name + ".lineBytes", levels[i + 1].lineBytes);
        if (levels[i + 1].sizeBytes < levels[i].sizeBytes)
            reject(name + " is smaller than " + levelName(i),
                   name + ".sizeBytes", levels[i + 1].sizeBytes);
        if (levels[i + 1].hitCycles <= levels[i].hitCycles)
            reject(name + " hit latency must exceed " + levelName(i) +
                       "'s",
                   name + ".hitCycles", levels[i + 1].hitCycles);
    }
}

void
validateMachineConfig(const MachineConfig &cfg)
{
    if (cfg.nprocs == 0 || cfg.nprocs > kMaxProcs)
        reject("processor count must be 1..64 (directory sharer mask)",
               "nprocs", cfg.nprocs);
    validateLevels(cfg.levels);
    if (!isPow2(cfg.pageBytes))
        reject("page size must be a power of two", "pageBytes",
               cfg.pageBytes);
    if (cfg.pageBytes < cfg.levels.back().lineBytes)
        reject("page smaller than the coherence granularity", "pageBytes",
               cfg.pageBytes);
    if (cfg.writeBufferEntries == 0)
        reject("write buffer needs at least one entry",
               "writeBufferEntries", cfg.writeBufferEntries);
    const LatencyConfig &lat = cfg.lat;
    if (cfg.levels.back().hitCycles >= lat.localMem)
        reject("last-level hit latency must be below local memory",
               levelName(cfg.levels.size() - 1) + ".hitCycles",
               cfg.levels.back().hitCycles);
    if (lat.localMem > lat.remote2Hop || lat.remote2Hop > lat.remote3Hop)
        reject("memory latencies must be monotone "
               "(local <= 2-hop <= 3-hop)",
               "latency.localMem", lat.localMem);
    if (lat.memBytesPerCycle == 0 || lat.ctrlBytesPerCycle == 0)
        reject("transfer rates must be nonzero",
               "latency.memBytesPerCycle", lat.memBytesPerCycle);
}

} // namespace sim
} // namespace dss
