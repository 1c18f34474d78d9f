#include "sim/fault.hh"

#include <algorithm>

#include "obs/registry.hh"

namespace dss {
namespace sim {

std::string_view
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::LatencySpike: return "latency_spike";
      case FaultKind::Eviction: return "eviction";
      case FaultKind::WbStall: return "wb_stall";
      case FaultKind::LockPreempt: return "lock_preempt";
      case FaultKind::QueryAbort: return "query_abort";
    }
    return "?";
}

namespace {

/** splitmix64 finalizer: a cheap, well-mixed 64-bit hash. */
constexpr std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Uniform [0, 1) from the top 53 bits of a hash. */
constexpr double
unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

bool
FaultPlan::fires(FaultKind k, ProcId p, std::uint64_t pos) const
{
    if (cfg_.rate <= 0.0 || !cfg_.enabled(k))
        return false;
    const std::uint64_t h =
        mix(cfg_.seed ^ mix(runIndex_ * 0x100000001B3ull ^
                            (static_cast<std::uint64_t>(p) << 56) ^
                            (pos << 3) ^
                            static_cast<std::uint64_t>(k)));
    return unit(h) < cfg_.rate;
}

void
FaultPlan::record(FaultKind k, ProcId p, std::uint64_t pos, Cycles c)
{
    log_.push_back({k, p, runIndex_, pos, c});
}

Cycles
FaultPlan::readDelay(ProcId p, std::uint64_t pos)
{
    if (!fires(FaultKind::LatencySpike, p, pos))
        return 0;
    record(FaultKind::LatencySpike, p, pos, cfg_.spikeCycles);
    return cfg_.spikeCycles;
}

bool
FaultPlan::evictAt(ProcId p, std::uint64_t pos)
{
    if (!fires(FaultKind::Eviction, p, pos))
        return false;
    record(FaultKind::Eviction, p, pos, 0);
    return true;
}

Cycles
FaultPlan::wbStall(ProcId p, std::uint64_t pos)
{
    if (!fires(FaultKind::WbStall, p, pos))
        return 0;
    record(FaultKind::WbStall, p, pos, cfg_.wbStallCycles);
    return cfg_.wbStallCycles;
}

Cycles
FaultPlan::holdStretch(ProcId p, std::uint64_t pos)
{
    if (!fires(FaultKind::LockPreempt, p, pos))
        return 0;
    record(FaultKind::LockPreempt, p, pos, cfg_.preemptCycles);
    return cfg_.preemptCycles;
}

void
FaultPlan::scheduleQuery()
{
    const std::uint64_t q = queryIndex_++;
    abortsRemaining_ = 0;
    if (cfg_.rate <= 0.0 || !cfg_.enabled(FaultKind::QueryAbort) ||
        cfg_.maxAbortsPerQuery == 0)
        return;
    const std::uint64_t h =
        mix(cfg_.seed ^ mix(0xABBAull ^ (q << 8)));
    if (unit(h) >= cfg_.rate)
        return;
    abortsRemaining_ =
        1 + static_cast<unsigned>(mix(h) % cfg_.maxAbortsPerQuery);
    aborts_ += abortsRemaining_;
    // Query aborts live outside any processor's trace; log them on
    // processor 0 with the query index as the position.
    log_.push_back({FaultKind::QueryAbort, 0, runIndex_, q, abortsRemaining_});
}

bool
FaultPlan::abortScheduled()
{
    if (abortsRemaining_ == 0)
        return false;
    --abortsRemaining_;
    return true;
}

void
FaultPlan::recordRetry(Cycles backoff)
{
    ++retries_;
    backoffCycles_ += backoff;
}

std::vector<FaultPlan::Event>
FaultPlan::schedule() const
{
    // Events that tie on (run, proc, pos, kind) are equal in every field
    // (a kind's cycles are fixed; query aborts have distinct positions),
    // so this order is canonical whatever order the faults fired in.
    std::vector<Event> out = log_;
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) {
                  if (a.run != b.run)
                      return a.run < b.run;
                  if (a.proc != b.proc)
                      return a.proc < b.proc;
                  if (a.pos != b.pos)
                      return a.pos < b.pos;
                  return static_cast<unsigned>(a.kind) <
                         static_cast<unsigned>(b.kind);
              });
    return out;
}

FaultPlan::Counters
FaultPlan::counters() const
{
    Counters c;
    for (const Event &e : log_)
        ++c.byKind[static_cast<std::size_t>(e.kind)];
    c.injected = log_.size();
    c.aborts = aborts_;
    c.retries = retries_;
    c.backoffCycles = backoffCycles_;
    return c;
}

void
FaultPlan::registerStats(obs::Registry &reg,
                         const std::string &prefix) const
{
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        reg.addCounter(
            obs::metricName(prefix, std::string("injected.") +
                                        std::string(faultKindName(kind))),
            [this, k] { return counters().byKind[k]; });
    }
    reg.addCounter(obs::metricName(prefix, "injected.total"),
                   [this] { return counters().injected; });
    reg.addCounter(obs::metricName(prefix, "aborts"),
                   [this] { return aborts_; });
    reg.addCounter(obs::metricName(prefix, "retries"),
                   [this] { return retries_; });
    reg.addCounter(obs::metricName(prefix, "backoff_cycles"),
                   [this] { return backoffCycles_; });
}

obs::Json
FaultPlan::toJson() const
{
    obs::Json j = obs::Json::object();
    j["seed"] = cfg_.seed;
    j["rate"] = cfg_.rate;
    const Counters c = counters();
    obs::Json inj = obs::Json::object();
    for (std::size_t k = 0; k < kNumFaultKinds; ++k)
        inj[std::string(faultKindName(static_cast<FaultKind>(k)))] =
            c.byKind[k];
    inj["total"] = c.injected;
    j["injected"] = std::move(inj);
    j["aborts"] = c.aborts;
    j["retries"] = c.retries;
    j["backoff_cycles"] = c.backoffCycles;
    return j;
}

} // namespace sim
} // namespace dss
