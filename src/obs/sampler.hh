/**
 * @file
 * Epoch time-series sampler for the Machine.
 *
 * End-of-run aggregates hide transient behaviour: the cold-to-warm cache
 * transition at the start of a scan, or a burst of LockMgrLock contention
 * while every processor opens its index, are invisible in a single total.
 * The sampler snapshots per-processor counters every time the machine's
 * *minimum* processor clock crosses an epoch boundary (every N simulated
 * cycles) and stores the deltas since the previous snapshot.
 *
 * Because snapshots are taken from the same cumulative ProcStats the run
 * returns, the samples reconcile exactly: summing every epoch delta of a
 * run reproduces the end-of-run ProcStats field for field.
 *
 * One Sampler may observe several consecutive Machine::run calls (the warm
 * -start chains of Fig 12); each sample records which run it belongs to.
 */

#ifndef DSS_OBS_SAMPLER_HH
#define DSS_OBS_SAMPLER_HH

#include <vector>

#include "obs/json.hh"
#include "sim/stats.hh"

namespace dss {
namespace obs {

/** Per-processor counter deltas over one epoch. */
struct EpochSample
{
    unsigned run = 0;        ///< index of the Machine::run call sampled
    sim::Cycles start = 0;   ///< epoch start (inclusive, run-local clock)
    sim::Cycles end = 0;     ///< epoch end (exclusive)
    /** Delta of each processor's cumulative stats over [start, end). */
    std::vector<sim::ProcStats> procs;
};

class Sampler
{
  public:
    /** Snapshot roughly every @p epoch_cycles simulated cycles. */
    explicit Sampler(sim::Cycles epoch_cycles);

    sim::Cycles epochCycles() const { return epochCycles_; }

    /**
     * Machine interface: start observing a run of @p nprocs processors.
     * Resets the epoch clock; the run index advances on every call.
     */
    void beginRun(std::size_t nprocs);

    /** True once @p min_clock has crossed the next epoch boundary. */
    bool
    due(sim::Cycles min_clock) const
    {
        return min_clock >= nextBoundary_;
    }

    /**
     * Record the epochs completed up to @p min_clock. @p cumulative holds
     * each processor's stats so far in this run. Emits one sample spanning
     * all boundaries crossed since the last snapshot (epochs are "at least
     * N cycles": when the minimum clock jumps several boundaries at once,
     * the delta is attributed to the whole jumped interval rather than
     * invented per-boundary splits).
     */
    void sample(sim::Cycles min_clock,
                const std::vector<sim::ProcStats> &cumulative);

    /** Close the run's final partial epoch at time @p end. */
    void finishRun(sim::Cycles end,
                   const std::vector<sim::ProcStats> &cumulative);

    const std::vector<EpochSample> &samples() const { return samples_; }

    /**
     * Sum of all sample deltas for processor @p p of run @p run — equals
     * the end-of-run ProcStats by construction (tested).
     */
    sim::ProcStats runTotal(unsigned run, std::size_t p) const;

    /**
     * Serialize the series: per sample, run/start/end plus per-processor
     * busy/memStall/syncStall and non-zero per-class L1/L2 miss deltas.
     */
    Json toJson() const;

  private:
    void emit(sim::Cycles end,
              const std::vector<sim::ProcStats> &cumulative);

    sim::Cycles epochCycles_;
    unsigned run_ = 0;
    bool inRun_ = false;
    sim::Cycles epochStart_ = 0;
    sim::Cycles nextBoundary_ = 0;
    std::vector<sim::ProcStats> last_; ///< snapshot at epochStart_
    std::vector<EpochSample> samples_;
};

} // namespace obs
} // namespace dss

#endif // DSS_OBS_SAMPLER_HH
