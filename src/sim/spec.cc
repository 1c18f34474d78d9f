#include "sim/spec.hh"

#include <fstream>
#include <sstream>

#include "sim/error.hh"

namespace dss {
namespace sim {

namespace {

[[noreturn]] void
fail(const std::string &what, const std::string &detail)
{
    obs::Json dump = obs::Json::object();
    dump["error"] = "invalid machine spec";
    dump["detail"] = detail;
    throw SimError("invalid machine spec: " + what, std::move(dump));
}

/**
 * Strict object reader: every key the caller consumes is checked off,
 * and finish() rejects the leftovers — a misspelled key can never fall
 * back to a default silently.
 */
class StrictObject
{
  public:
    StrictObject(const obs::Json &j, std::string where)
        : j_(j), where_(std::move(where))
    {
        if (!j.isObject())
            fail(where_ + " must be a JSON object", where_);
    }

    const obs::Json *
    take(const std::string &key)
    {
        seen_.push_back(key);
        return j_.find(key);
    }

    std::uint64_t
    uintOr(const std::string &key, std::uint64_t dflt)
    {
        const obs::Json *v = take(key);
        if (!v)
            return dflt;
        if (!v->isNumber())
            fail(where_ + "." + key + " must be a number", key);
        return v->asUint();
    }

    bool
    boolOr(const std::string &key, bool dflt)
    {
        const obs::Json *v = take(key);
        return v ? v->asBool() : dflt;
    }

    void
    finish()
    {
        for (const auto &[key, value] : j_.members()) {
            (void)value;
            bool known = false;
            for (const std::string &s : seen_)
                if (s == key)
                    known = true;
            if (!known)
                fail("unknown key \"" + key + "\" in " + where_,
                     where_ + "." + key);
        }
    }

  private:
    const obs::Json &j_;
    std::string where_;
    std::vector<std::string> seen_;
};

LevelConfig
levelFromJson(const obs::Json &j, const std::string &where)
{
    StrictObject o(j, where);
    LevelConfig lc;
    lc.sizeBytes = o.uintOr("sizeBytes", lc.sizeBytes);
    lc.lineBytes = o.uintOr("lineBytes", lc.lineBytes);
    lc.assoc = static_cast<unsigned>(o.uintOr("assoc", lc.assoc));
    lc.hitCycles = o.uintOr("hitCycles", lc.hitCycles);
    o.finish();
    return lc;
}

LatencyConfig
latencyFromJson(const obs::Json &j)
{
    StrictObject o(j, "latency");
    LatencyConfig lat;
    lat.localMem = o.uintOr("localMem", lat.localMem);
    lat.remote2Hop = o.uintOr("remote2Hop", lat.remote2Hop);
    lat.remote3Hop = o.uintOr("remote3Hop", lat.remote3Hop);
    lat.controllerOccupancy =
        o.uintOr("controllerOccupancy", lat.controllerOccupancy);
    lat.memBytesPerCycle = o.uintOr("memBytesPerCycle", lat.memBytesPerCycle);
    lat.ctrlBytesPerCycle =
        o.uintOr("ctrlBytesPerCycle", lat.ctrlBytesPerCycle);
    o.finish();
    return lat;
}

MachineSpec
modernPreset()
{
    MachineSpec spec;
    spec.name = "modern";
    MachineConfig &c = spec.config;

    LevelConfig l1;
    l1.sizeBytes = 32 * 1024;
    l1.lineBytes = 64;
    l1.assoc = 8;
    l1.hitCycles = 1;
    LevelConfig l2;
    l2.sizeBytes = 256 * 1024;
    l2.lineBytes = 64;
    l2.assoc = 8;
    l2.hitCycles = 14;
    LevelConfig llc;
    llc.sizeBytes = 8 * 1024 * 1024;
    llc.lineBytes = 64;
    llc.assoc = 16;
    llc.hitCycles = 48;
    c.levels = {l1, l2, llc};
    return spec;
}

} // namespace

std::vector<std::string>
machinePresetNames()
{
    return {"paper1997", "modern"};
}

MachineSpec
machinePreset(const std::string &name)
{
    if (name == "paper1997")
        return {"paper1997", MachineConfig::baseline()};
    if (name == "modern")
        return modernPreset();
    std::string names;
    for (const std::string &n : machinePresetNames())
        names += (names.empty() ? "" : ", ") + n;
    fail("unknown preset \"" + name + "\" (have: " + names + ")", name);
}

MachineSpec
specFromJson(const obs::Json &j, const std::string &name)
{
    StrictObject o(j, "spec");
    MachineSpec spec;
    spec.name = name;
    MachineConfig &c = spec.config;
    if (const obs::Json *n = o.take("name"); n && n->isString())
        spec.name = n->asString();
    c.nprocs = static_cast<unsigned>(o.uintOr("nprocs", c.nprocs));
    if (const obs::Json *levels = o.take("levels")) {
        if (!levels->isArray() || levels->size() == 0)
            fail("\"levels\" must be a non-empty array", "levels");
        c.levels.clear();
        for (std::size_t i = 0; i < levels->size(); ++i)
            c.levels.push_back(
                levelFromJson(levels->at(i), levelName(i)));
    }
    c.writeBufferEntries =
        o.uintOr("writeBufferEntries", c.writeBufferEntries);
    c.pageBytes = o.uintOr("pageBytes", c.pageBytes);
    if (const obs::Json *lat = o.take("latency"))
        c.lat = latencyFromJson(*lat);
    c.prefetchData = o.boolOr("prefetchData", c.prefetchData);
    c.prefetchDegree =
        static_cast<unsigned>(o.uintOr("prefetchDegree", c.prefetchDegree));
    c.issueCyclesPerRef = o.uintOr("issueCyclesPerRef", c.issueCyclesPerRef);
    o.finish();
    c.validate();
    return spec;
}

MachineSpec
loadSpec(const std::string &nameOrPath)
{
    const bool is_file =
        (nameOrPath.size() > 5 &&
         nameOrPath.compare(nameOrPath.size() - 5, 5, ".json") == 0) ||
        nameOrPath.find('/') != std::string::npos;
    if (!is_file)
        return machinePreset(nameOrPath);

    std::ifstream in(nameOrPath);
    if (!in)
        fail("cannot read machine-spec file " + nameOrPath, nameOrPath);
    std::ostringstream text;
    text << in.rdbuf();
    obs::Json j;
    try {
        j = obs::Json::parse(text.str());
    } catch (const std::exception &e) {
        fail("malformed JSON in " + nameOrPath + ": " + e.what(),
             nameOrPath);
    }
    return specFromJson(j, nameOrPath);
}

} // namespace sim
} // namespace dss
