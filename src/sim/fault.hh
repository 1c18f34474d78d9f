/**
 * @file
 * Seeded, deterministic fault injection for the simulated machine.
 *
 * A FaultPlan perturbs the memory system to exercise its degraded paths:
 *
 *  - LatencySpike:  extra directory/remote-hop latency on a read
 *  - Eviction:      forced eviction of the accessed L2 line (plus its L1
 *                   sublines) before a read, as if a conflict evicted it
 *  - WbStall:       a write-buffer stall storm charged to a store
 *  - LockPreempt:   the holder of a metalock is "preempted" right before
 *                   its release, stretching the hold time (the classic
 *                   spinlock pathology the paper's MSync time measures)
 *
 * Determinism contract: every decision is a pure function of
 * (seed, run index, processor, per-processor trace position, fault kind)
 * — never of the global interleaving. The replay visits each processor's
 * Read/Write/LockRel trace positions exactly once per run, so the same
 * seed produces a bit-identical fault schedule on every rerun, and a
 * change of timing (placement, latencies) cannot move it. (LockAcq
 * entries re-execute on wake-up and are therefore never fault points.)
 *
 * Every processor can fault. Fired faults land in one log in firing
 * order; schedule() sorts it into canonical order, and aggregation
 * (counters(), schedule(), toJson()) is only valid outside a run.
 */

#ifndef DSS_SIM_FAULT_HH
#define DSS_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/addr.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

enum class FaultKind : std::uint8_t {
    LatencySpike,
    Eviction,
    WbStall,
    LockPreempt,
};
constexpr std::size_t kNumFaultKinds = 4;

std::string_view faultKindName(FaultKind k);

constexpr Cycles kSpikeCycles = 200;   ///< extra read latency per LatencySpike
constexpr Cycles kWbStallCycles = 64;  ///< stall charged per WbStall
constexpr Cycles kPreemptCycles = 500; ///< hold stretch per LockPreempt

struct FaultConfig
{
    std::uint64_t seed = 0;
    /** Per-opportunity probability of each kind, in [0, 1]. */
    double rate = 0.0;
};

class FaultPlan
{
  public:
    explicit FaultPlan(const FaultConfig &cfg) : cfg_(cfg) {}

    const FaultConfig &config() const { return cfg_; }

    /** Called by Machine::run at run start: decisions mix in the run
     * index so chained runs (Fig 12 sequences) see distinct schedules. */
    void beginRun() { ++runIndex_; }

    // ----- decision points (record the event when they fire) -----

    /** Extra latency charged to the read at trace position @p pos. */
    Cycles readDelay(ProcId p, std::uint64_t pos);

    /** True if the line accessed at @p pos must be force-evicted first. */
    bool evictAt(ProcId p, std::uint64_t pos);

    /** Extra write-buffer stall charged to the store at @p pos. */
    Cycles wbStall(ProcId p, std::uint64_t pos);

    /** Hold-time stretch applied before the release at @p pos. */
    Cycles holdStretch(ProcId p, std::uint64_t pos);

    // ----- aggregation (outside a run only) -----

    struct Event
    {
        FaultKind kind;
        ProcId proc;
        std::uint64_t run;
        std::uint64_t pos;
        Cycles cycles;

        bool operator==(const Event &o) const
        {
            return kind == o.kind && proc == o.proc && run == o.run &&
                   pos == o.pos && cycles == o.cycles;
        }
    };

    /** The full fired-fault schedule in (run, proc, position, kind)
     * order. Bit-identical across reruns. */
    std::vector<Event> schedule() const;

    struct Counters
    {
        std::array<std::uint64_t, kNumFaultKinds> byKind{};
        std::uint64_t injected = 0; ///< total fired faults
    };

    Counters counters() const;

    /** Register "fault.*" counters into @p reg (live views). */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

    /** Config + counters + schedule digest for JSON reports. */
    obs::Json toJson() const;

  private:
    bool fires(FaultKind k, ProcId p, std::uint64_t pos) const;
    void record(FaultKind k, ProcId p, std::uint64_t pos, Cycles c);

    FaultConfig cfg_;
    std::uint64_t runIndex_ = 0;
    std::vector<Event> log_; ///< fired faults, in firing order
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_FAULT_HH
