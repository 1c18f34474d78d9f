/**
 * @file
 * Deterministic query-stream scheduler: admits a seeded arrival stream
 * of query instances onto the N processors of one warm simulated
 * machine, queueing instances when every processor is busy, and accounts
 * per-instance latency plus stream-level tail statistics.
 *
 * Determinism argument (DESIGN.md §15, proven by tests/test_sched.cc and
 * tests/test_stream_fuzz.cc):
 *
 *  1. Each instance runs *solo* — one trace on its assigned processor
 *     slot of the shared machine (Machine::resetStats, then
 *     Machine::run). A solo run is a pure function of the trace and the
 *     machine state it starts from (a single pipeline leaves no
 *     cross-processor interleaving).
 *  2. Trace capture is pure: Workload::streamTrace yields byte-identical
 *     streams for equal (query, params, proc), so the TraceCache's hit
 *     path replays exactly the miss path's bytes.
 *  3. The event loop is simulated-cycle-driven with total tie-break
 *     orders (completions by (cycle, proc); dispatch by policy with
 *     (arrival, id) as the final tie-break), so the admission order is a
 *     pure function of the stream configuration and the per-instance
 *     service times — themselves deterministic by (1) and (2).
 *
 * Cross-instance memory behaviour is still real: caches, directory
 * state and miss-classification history persist across the stream
 * (unless StreamConfig::coldCache), so a Q6 landing on a processor that
 * just ran Q3 pays coherence misses on the metadata lines the Q3 run
 * left dirty in other processors' caches. What the stream layer does
 * *not* model is intra-run concurrency: two instances whose service
 * intervals overlap in stream time still replay serially on the machine,
 * an approximation documented in DESIGN.md §15.3.
 */

#ifndef DSS_SCHED_SCHEDULER_HH
#define DSS_SCHED_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/json.hh"
#include "sched/latency.hh"
#include "sched/stream.hh"
#include "sched/trace_cache.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"

namespace dss {
namespace sched {

/** Everything recorded about one completed query instance. */
struct InstanceRecord
{
    QueryInstance inst;
    sim::ProcId proc = 0;     ///< processor slot it ran on
    sim::Cycles start = 0;    ///< dispatch cycle
    sim::Cycles complete = 0; ///< completion cycle
    sim::Cycles service = 0;  ///< cycles the processor was occupied
    sim::Cycles wait = 0;     ///< start - arrival (queueing delay)
    sim::Cycles latency = 0;  ///< complete - arrival
    std::uint64_t traceHash = 0; ///< content hash of the replayed trace,
                                 ///< as the cache stored it at capture
    sim::SimStats stats;      ///< full solo-run statistics
};

/** A finished stream: per-instance records plus stream-level accounting. */
struct StreamResult
{
    StreamConfig config;
    std::vector<InstanceRecord> records; ///< in completion order
    sim::Cycles makespan = 0;            ///< max completion cycle
    LatencySummary latency;              ///< arrival -> completion
    LatencySummary wait;                 ///< arrival -> dispatch
    LatencySummary service;              ///< dispatch -> completion
    /** Per-query-name latency summaries, sorted by name. */
    std::vector<std::pair<std::string, LatencySummary>> byQuery;
    /** Completed instances per million simulated cycles of makespan. */
    double throughputPerMcycle = 0.0;
    TraceCache::Stats cache; ///< snapshot of the cache after the run
};

/**
 * The full result as JSON. @p include_run_stats embeds each instance's
 * complete solo-run toJson(SimStats) — exact but bulky; the stream
 * golden and differential tests use it, human-facing reports may skip
 * it. Two runs of the same configuration serialize byte-identically,
 * which the golden fixture pins (tests/golden/stream.json).
 */
obs::Json toJson(const StreamResult &r, bool include_run_stats = true);

/**
 * Runs one stream on one warm machine. The scheduler owns the Machine
 * (built from @p machine_cfg) and wires it from @p base_opts with
 * harness::wireMachine, as runSequence does (checker, placement,
 * memory profile); the per-run observers of @p base_opts
 * (sampler, timeline) pass through to every instance run.
 *
 * Every instance's trace comes through @p cache, which must not be null
 * and may be shared across schedulers — entries are keyed on capture
 * arguments only, which is sound because captures are pure.
 */
class StreamScheduler
{
  public:
    StreamScheduler(harness::Workload &workload,
                    const sim::MachineConfig &machine_cfg,
                    const StreamConfig &stream_cfg,
                    const harness::RunOptions &base_opts,
                    TraceCache *cache);

    /** Run the whole stream; callable once per scheduler. */
    StreamResult run();

    /**
     * Export the sched.* counters: instances, dispatched, completed and
     * queue_peak. Valid after run(); the scheduler must outlive @p reg's
     * use.
     */
    void registerStats(obs::Registry &reg,
                       const std::string &prefix = "sched") const;

    sim::Machine &machine() { return machine_; }

  private:
    struct Counters
    {
        std::uint64_t instances = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t completed = 0;
        std::uint64_t queuePeak = 0;  ///< max instances left waiting
    };

    unsigned pickNext(const std::vector<QueryInstance> &instances,
                      const std::vector<unsigned> &ready) const;
    InstanceRecord runInstance(const QueryInstance &inst, sim::ProcId proc,
                               sim::Cycles start);

    harness::Workload &workload_;
    StreamConfig cfg_;
    harness::RunOptions opts_;
    TraceCache *cache_;
    sim::Machine machine_;
    Counters counters_;
    bool ran_ = false;
};

} // namespace sched
} // namespace dss

#endif // DSS_SCHED_SCHEDULER_HH
