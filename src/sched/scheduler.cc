#include "sched/scheduler.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/registry.hh"
#include "obs/stats_json.hh"
#include "sim/check.hh"
#include "sim/fault.hh"

namespace dss {
namespace sched {

StreamScheduler::StreamScheduler(harness::Workload &workload,
                                 const sim::MachineConfig &machine_cfg,
                                 const StreamConfig &stream_cfg,
                                 const harness::RunOptions &base_opts,
                                 TraceCache *cache)
    : workload_(workload), cfg_(stream_cfg), opts_(base_opts),
      cache_(cache), machine_(machine_cfg)
{
    if (!cache_)
        throw std::invalid_argument("stream scheduler needs a trace cache");
    if (machine_cfg.nprocs > workload.nprocs())
        throw std::invalid_argument(
            "stream machine has more processors than the workload's "
            "address space provides private heaps for");
    // Wire the machine exactly like harness::runCold would.
    machine_.setChecker(opts_.checker);
    machine_.setFaultPlan(opts_.faults);
    machine_.setPlacement(opts_.placement);
    machine_.setMemProfile(opts_.memProfile);
}

unsigned
StreamScheduler::pickNext(const std::vector<QueryInstance> &instances,
                          const std::vector<unsigned> &ready) const
{
    unsigned best = 0;
    for (unsigned i = 1; i < ready.size(); ++i) {
        const QueryInstance &a = instances[ready[i]];
        const QueryInstance &b = instances[ready[best]];
        bool better = false;
        if (cfg_.policy == Policy::ShortestClass &&
            serviceRank(a.query) != serviceRank(b.query)) {
            better = serviceRank(a.query) < serviceRank(b.query);
        } else if (a.arrival != b.arrival) {
            better = a.arrival < b.arrival;
        } else {
            better = a.id < b.id;
        }
        if (better)
            best = i;
    }
    return best;
}

InstanceRecord
StreamScheduler::runInstance(const QueryInstance &inst, sim::ProcId proc,
                             sim::Cycles start)
{
    InstanceRecord rec;
    rec.inst = inst;
    rec.proc = proc;
    rec.start = start;

    const sim::TraceStream &stream = cache_->fetch(
        {inst.query, inst.paramSeed, proc}, [&] {
            return workload_.streamTrace(inst.query, inst.paramSeed, proc);
        });
    rec.traceHash = stream.contentHash();

    if (cfg_.coldCache)
        machine_.resetMemoryState();

    // The instance replays solo on its processor slot: lower slots get
    // empty traces (immediately done, zero cycles), higher slots idle.
    // A solo run has no cross-processor interleaving to order, which is
    // what makes stream results a pure function of the configuration.
    static const sim::TraceStream kEmpty;
    std::vector<const sim::TraceStream *> ptrs(proc + 1, &kEmpty);
    ptrs[proc] = &stream;
    machine_.resetStats();
    rec.stats = machine_.run(ptrs, opts_.sampler, opts_.timeline);

    rec.service = rec.stats.executionTime();
    rec.complete = start + rec.service;
    rec.wait = start - inst.arrival;
    rec.latency = rec.complete - inst.arrival;
    return rec;
}

StreamResult
StreamScheduler::run()
{
    if (ran_)
        throw std::logic_error("StreamScheduler::run is single-shot");
    ran_ = true;

    std::vector<QueryInstance> instances = makeInstances(cfg_);
    const unsigned n = static_cast<unsigned>(instances.size());
    const unsigned nprocs = machine_.config().nprocs;
    counters_.instances = n;

    StreamResult result;
    result.config = cfg_;
    result.records.reserve(n);

    // The instance pools: not yet arrived (closed-loop successors have
    // unknown arrivals until their predecessor completes), arrived and
    // queued (ready), and running — at most one per processor, which is
    // free exactly when its running instance retires.
    std::vector<char> arrivalKnown(n, 0);
    std::vector<char> admitted(n, 0);
    std::vector<unsigned> ready;
    std::vector<std::optional<InstanceRecord>> running(nprocs);
    for (unsigned i = 0; i < n; ++i) {
        // Open loop: every arrival; closed loop: each client's first.
        arrivalKnown[i] =
            cfg_.mode == ArrivalMode::Open || instances[i].client == i;
    }

    sim::Cycles now = 0;
    while (counters_.completed < n) {
        // Admit every known arrival due by now.
        for (unsigned i = 0; i < n; ++i) {
            if (arrivalKnown[i] && !admitted[i] &&
                instances[i].arrival <= now) {
                admitted[i] = 1;
                ready.push_back(i);
            }
        }

        // Dispatch queued instances onto free processors, policy order,
        // lowest free processor slot first.
        for (unsigned p = 0; p < nprocs && !ready.empty(); ++p) {
            if (running[p])
                continue;
            const unsigned slot = pickNext(instances, ready);
            const unsigned id = ready[slot];
            ready.erase(ready.begin() + slot);
            running[p] = runInstance(instances[id], p, now);
            ++counters_.dispatched;
        }
        counters_.queuePeak =
            std::max(counters_.queuePeak,
                     static_cast<std::uint64_t>(ready.size()));

        // Advance to the next event: the earliest completion or
        // not-yet-admitted arrival.
        std::optional<sim::Cycles> next;
        auto consider = [&](sim::Cycles c) {
            if (!next || c < *next)
                next = c;
        };
        for (const std::optional<InstanceRecord> &r : running) {
            if (r)
                consider(r->complete);
        }
        for (unsigned i = 0; i < n; ++i) {
            if (arrivalKnown[i] && !admitted[i])
                consider(instances[i].arrival);
        }
        if (!next)
            throw std::logic_error("stream stalled with no pending event");
        now = *next;

        // Retire the completions at now. No running instance completes
        // before now, so processor order is (cycle, proc) order. A
        // closed-loop client submits its successor at the completion.
        for (unsigned p = 0; p < nprocs; ++p) {
            if (!running[p] || running[p]->complete > now)
                continue;
            if (cfg_.mode == ArrivalMode::Closed) {
                const unsigned succ = running[p]->inst.id + cfg_.clients;
                if (succ < n) {
                    instances[succ].arrival = now;
                    arrivalKnown[succ] = 1;
                }
            }
            ++counters_.completed;
            result.records.push_back(std::move(*running[p]));
            running[p].reset();
        }
    }

    // Stream-level accounting, over records sorted into completion order.
    std::stable_sort(result.records.begin(), result.records.end(),
                     [](const InstanceRecord &a, const InstanceRecord &b) {
                         if (a.complete != b.complete)
                             return a.complete < b.complete;
                         if (a.proc != b.proc)
                             return a.proc < b.proc;
                         return a.inst.id < b.inst.id;
                     });
    std::vector<double> lat, wait, service;
    std::map<std::string, std::vector<double>> by_query;
    for (const InstanceRecord &r : result.records) {
        result.makespan = std::max(result.makespan, r.complete);
        lat.push_back(static_cast<double>(r.latency));
        wait.push_back(static_cast<double>(r.wait));
        service.push_back(static_cast<double>(r.service));
        by_query[tpcd::queryName(r.inst.query)].push_back(
            static_cast<double>(r.latency));
    }
    result.latency = summarize(lat);
    result.wait = summarize(wait);
    result.service = summarize(service);
    for (const auto &kv : by_query)
        result.byQuery.emplace_back(kv.first, summarize(kv.second));
    if (result.makespan > 0)
        result.throughputPerMcycle =
            static_cast<double>(n) /
            (static_cast<double>(result.makespan) / 1e6);
    result.cache = cache_->stats();

    // End-of-stream registry snapshot: machine counters plus the stream
    // layer's own (runSequence's equivalent happens here so the JSON
    // report sees the whole warm stream).
    if (opts_.registrySnapshot) {
        obs::Registry reg;
        machine_.registerStats(reg);
        if (opts_.checker)
            opts_.checker->registerStats(reg, "check");
        if (opts_.faults)
            opts_.faults->registerStats(reg, "fault");
        cache_->registerStats(reg, "cache");
        registerStats(reg, "sched");
        *opts_.registrySnapshot = reg.toJson();
    }
    return result;
}

void
StreamScheduler::registerStats(obs::Registry &reg,
                               const std::string &prefix) const
{
    reg.addCounter(obs::metricName(prefix, "instances"),
                   [this] { return counters_.instances; });
    reg.addCounter(obs::metricName(prefix, "dispatched"),
                   [this] { return counters_.dispatched; });
    reg.addCounter(obs::metricName(prefix, "completed"),
                   [this] { return counters_.completed; });
    reg.addCounter(obs::metricName(prefix, "queue_peak"),
                   [this] { return counters_.queuePeak; });
}

obs::Json
toJson(const StreamResult &r, bool include_run_stats)
{
    obs::Json j = obs::Json::object();
    j["config"] = toJson(r.config);

    obs::Json summary = obs::Json::object();
    summary["instances"] =
        obs::Json(static_cast<std::uint64_t>(r.records.size()));
    summary["makespan"] = obs::Json(r.makespan);
    summary["throughput_per_mcycle"] = obs::Json(r.throughputPerMcycle);
    summary["latency"] = toJson(r.latency);
    summary["wait"] = toJson(r.wait);
    summary["service"] = toJson(r.service);
    obs::Json byq = obs::Json::object();
    for (const auto &kv : r.byQuery)
        byq[kv.first] = toJson(kv.second);
    summary["by_query"] = std::move(byq);
    j["summary"] = std::move(summary);

    obs::Json cache = obs::Json::object();
    cache["hits"] = obs::Json(r.cache.hits);
    cache["misses"] = obs::Json(r.cache.misses);
    cache["entries"] = obs::Json(r.cache.entries);
    j["cache"] = std::move(cache);

    obs::Json records = obs::Json::array();
    for (const InstanceRecord &rec : r.records) {
        obs::Json e = obs::Json::object();
        e["id"] = obs::Json(rec.inst.id);
        e["query"] = obs::Json(tpcd::queryName(rec.inst.query));
        e["param_seed"] = obs::Json(rec.inst.paramSeed);
        if (r.config.mode == ArrivalMode::Closed)
            e["client"] = obs::Json(rec.inst.client);
        e["proc"] = obs::Json(static_cast<unsigned>(rec.proc));
        e["arrival"] = obs::Json(rec.inst.arrival);
        e["start"] = obs::Json(rec.start);
        e["complete"] = obs::Json(rec.complete);
        e["service"] = obs::Json(rec.service);
        e["wait"] = obs::Json(rec.wait);
        e["latency"] = obs::Json(rec.latency);
        e["trace_hash"] = obs::Json(rec.traceHash);
        if (include_run_stats)
            e["stats"] = obs::toJson(rec.stats);
        records.push(std::move(e));
    }
    j["records"] = std::move(records);
    return j;
}

} // namespace sched
} // namespace dss
