#include "sched/scheduler.hh"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/registry.hh"
#include "obs/stats_json.hh"
#include "sim/check.hh"
#include "sim/error.hh"
#include "sim/fault.hh"

namespace dss {
namespace sched {

StreamScheduler::StreamScheduler(harness::Workload &workload,
                                 const sim::MachineConfig &machine_cfg,
                                 const StreamConfig &stream_cfg,
                                 const harness::RunOptions &base_opts,
                                 TraceCache *cache,
                                 const ResilienceConfig &resilience)
    : workload_(workload), cfg_(stream_cfg), opts_(base_opts),
      cache_(cache), res_(resilience), machine_(machine_cfg)
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
    rec.stats = harness::runOnMachine(machine_, ptrs, opts_);

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

    const bool res_on = res_.enabled();
    OutageTable outages(res_.nodeFailures ? opts_.faults : nullptr, nprocs);
    CircuitBreaker breaker(res_);
    std::map<std::string, ClassSlo> slo;

    StreamResult result;
    result.config = cfg_;
    result.resilienceEnabled = res_on;
    result.records.reserve(n);

    // Per-processor availability and the instance pools: not yet arrived
    // (closed-loop successors have unknown arrivals until their
    // predecessor resolves), arrived-and-queued (ready), running, and
    // resolved. readyAt starts as the arrival and moves forward when a
    // node failure re-queues an instance with backoff.
    std::vector<sim::Cycles> freeAt(nprocs, 0);
    std::vector<char> procBusy(nprocs, 0);
    std::vector<char> arrivalKnown(n, 0);
    std::vector<char> admitted(n, 0);
    std::vector<char> resolvedFlag(n, 0);
    std::vector<sim::Cycles> readyAt(n, 0);
    std::vector<sim::Cycles> deadlineAt(n, 0); ///< absolute; 0 = none
    std::vector<unsigned> attempts(n, 0);
    std::vector<unsigned> migrations(n, 0);
    std::vector<unsigned> ready;

    enum class EvKind { Complete, Timeout, NodeFail, Abandon };
    struct Running
    {
        sim::Cycles cycle; ///< when the event resolves/frees the proc
        sim::ProcId proc;
        unsigned id;
        EvKind kind;
        sim::Cycles procFreeAt; ///< kNever while permanently down
        InstanceRecord rec;     ///< unused for NodeFail (it migrates)
    };
    std::vector<Running> running;

    auto deadlineCycleFor = [&](const QueryInstance &inst) -> sim::Cycles {
        if (!res_on)
            return 0;
        const sim::Cycles d = res_.deadlineFor(inst.query);
        return d ? inst.arrival + d : 0;
    };

    for (unsigned i = 0; i < n; ++i) {
        if (cfg_.mode == ArrivalMode::Open || instances[i].client == i) {
            arrivalKnown[i] = 1; // open: all; closed: each client's first
            readyAt[i] = instances[i].arrival;
            deadlineAt[i] = deadlineCycleFor(instances[i]);
        }
    }

    unsigned resolved = 0;
    auto classKey = [&](unsigned id) {
        return tpcd::queryName(instances[id].query);
    };
    // Resolve instance `id` with the finished record: count it, feed the
    // breaker, and (closed loop) let the client submit its successor at
    // the resolution cycle.
    auto resolve = [&](unsigned id, InstanceRecord rec, sim::Cycles cycle) {
        resolvedFlag[id] = 1;
        ++resolved;
        switch (rec.outcome) {
          case Outcome::Ok: ++counters_.completed; break;
          case Outcome::Timeout: ++counters_.timeouts; break;
          case Outcome::ShedQueue: ++counters_.shedQueue; break;
          case Outcome::ShedBreaker: ++counters_.shedBreaker; break;
          case Outcome::ShedExpired: ++counters_.shedExpired; break;
          case Outcome::Abandoned: ++counters_.abandoned; break;
        }
        if (res_on) {
            ClassSlo &cs = slo[classKey(id)];
            cs.count(rec.outcome);
            cs.migrations += rec.migrations;
            breaker.onResolution(classKey(id), id, rec.outcome, cycle);
        }
        if (cfg_.mode == ArrivalMode::Closed) {
            const unsigned succ = id + cfg_.clients;
            if (succ < n) {
                instances[succ].arrival = cycle;
                arrivalKnown[succ] = 1;
                readyAt[succ] = cycle;
                deadlineAt[succ] = deadlineCycleFor(instances[succ]);
            }
        }
        result.records.push_back(std::move(rec));
    };
    // Resolve an instance that never got (or never finished) service.
    auto shed = [&](unsigned id, Outcome o, sim::Cycles cycle) {
        InstanceRecord rec;
        rec.inst = instances[id];
        rec.start = cycle;
        rec.complete = cycle;
        rec.wait = cycle - instances[id].arrival;
        rec.latency = cycle - instances[id].arrival;
        rec.outcome = o;
        rec.attempts = attempts[id];
        rec.migrations = migrations[id];
        rec.deadline = deadlineAt[id];
        resolve(id, std::move(rec), cycle);
    };

    sim::Cycles now = 0;
    while (resolved < n) {
        const unsigned resolved_before = resolved;

        // Admit every known (or re-queued) arrival due by now. An open
        // circuit breaker sheds the class at the door; node-failure
        // re-entries (attempts > 0) are continuations, not fresh
        // submissions, and bypass the breaker.
        for (unsigned i = 0; i < n; ++i) {
            if (!arrivalKnown[i] || admitted[i] || resolvedFlag[i] ||
                readyAt[i] > now)
                continue;
            admitted[i] = 1;
            if (res_on && breaker.enabled() && attempts[i] == 0) {
                const auto d = breaker.onArrival(classKey(i), i, now);
                if (d == CircuitBreaker::Decision::Shed) {
                    shed(i, Outcome::ShedBreaker, now);
                    continue;
                }
            }
            ready.push_back(i);
        }

        // Dispatch queued instances onto in-service free processors,
        // policy order, lowest free processor slot first.
        bool dispatched_any = false;
        while (!ready.empty()) {
            sim::ProcId proc = nprocs;
            for (unsigned p = 0; p < nprocs; ++p) {
                if (!procBusy[p] && freeAt[p] <= now &&
                    !(outages.active() &&
                      outages.coveringOutage(p, now))) {
                    proc = p;
                    break;
                }
            }
            if (proc == nprocs)
                break;
            const unsigned slot = pickNext(instances, ready);
            const unsigned id = ready[slot];
            ready.erase(ready.begin() + slot);
            // A deadline that already passed in the queue: shed instead
            // of burning a processor on a guaranteed timeout.
            if (res_on && deadlineAt[id] && now >= deadlineAt[id]) {
                shed(id, Outcome::ShedExpired, now);
                continue;
            }
            InstanceRecord rec = runInstance(instances[id], proc, now);
            ++counters_.dispatched;
            ++attempts[id];
            rec.attempts = attempts[id];
            rec.migrations = migrations[id];
            rec.deadline = deadlineAt[id];
            procBusy[proc] = 1;
            dispatched_any = true;

            // How does this attempt end? A node failure beats the
            // deadline when it strikes first; otherwise the deadline
            // truncates any run that would finish late; otherwise the
            // run completes.
            Running ev;
            ev.proc = proc;
            ev.id = id;
            std::optional<OutageWindow> fail;
            if (outages.active()) {
                const auto w = outages.nextOutageAfter(proc, now);
                if (w && w->start < rec.complete &&
                    (!deadlineAt[id] || w->start <= deadlineAt[id]))
                    fail = w;
            }
            if (fail) {
                ev.cycle = fail->start;
                ev.procFreeAt =
                    fail->permanent ? sim::FaultPlan::kNever : fail->end;
                if (migrations[id] >= res_.migrationBudget) {
                    // Out of migration budget: the stream gives up on it.
                    ev.kind = EvKind::Abandon;
                    rec.complete = fail->start;
                    rec.service = fail->start - rec.start;
                    rec.latency = fail->start - rec.inst.arrival;
                    rec.outcome = Outcome::Abandoned;
                    ev.rec = std::move(rec);
                } else {
                    // Abort at the failure and migrate: re-queue under
                    // the harness retry policy's bounded backoff; a
                    // surviving processor picks it up.
                    ev.kind = EvKind::NodeFail;
                    ++migrations[id];
                    ++counters_.migrations;
                    admitted[id] = 0;
                    readyAt[id] =
                        fail->start +
                        harness::backoffFor(opts_.retry,
                                            migrations[id] - 1);
                }
            } else if (res_on && deadlineAt[id] &&
                       deadlineAt[id] < rec.complete) {
                ev.kind = EvKind::Timeout;
                ev.cycle = deadlineAt[id];
                ev.procFreeAt = deadlineAt[id];
                rec.complete = deadlineAt[id];
                rec.service = deadlineAt[id] - rec.start;
                rec.latency = deadlineAt[id] - rec.inst.arrival;
                rec.outcome = Outcome::Timeout;
                ev.rec = std::move(rec);
            } else {
                ev.kind = EvKind::Complete;
                ev.cycle = rec.complete;
                ev.procFreeAt = rec.complete;
                rec.outcome = Outcome::Ok;
                ev.rec = std::move(rec);
            }
            running.push_back(std::move(ev));
        }

        // Admission control: whatever dispatch could not place must fit
        // the bounded run queue; the shed policy picks the overflow
        // victims. Runs after dispatch so capacity 0 still serves
        // instances that can start immediately.
        if (res_on && res_.queueCapacity != ResilienceConfig::kUnboundedQueue) {
            while (ready.size() > res_.queueCapacity) {
                const unsigned slot =
                    shedVictim(res_.shed, instances, ready, deadlineAt);
                const unsigned id = ready[slot];
                ready.erase(ready.begin() + slot);
                shed(id, Outcome::ShedQueue, now);
            }
        }
        counters_.queuePeak =
            std::max(counters_.queuePeak,
                     static_cast<std::uint64_t>(ready.size()));

        // Anything resolved or dispatched at `now` may have released
        // closed-loop successors due at `now`: re-run admission before
        // advancing the clock.
        if (dispatched_any || resolved != resolved_before)
            continue;

        // Advance to the next event: the earliest running-instance
        // event, not-yet-admitted arrival/re-entry, or — when work is
        // queued and every free processor is down — outage end.
        sim::Cycles next = 0;
        bool have_next = false;
        auto consider = [&](sim::Cycles c) {
            if (!have_next || c < next) {
                next = c;
                have_next = true;
            }
        };
        for (const Running &r : running)
            consider(r.cycle);
        for (unsigned i = 0; i < n; ++i) {
            if (arrivalKnown[i] && !admitted[i] && !resolvedFlag[i])
                consider(readyAt[i]);
        }
        if (!ready.empty() && outages.active()) {
            for (unsigned p = 0; p < nprocs; ++p) {
                if (procBusy[p] || freeAt[p] == sim::FaultPlan::kNever)
                    continue;
                const auto up =
                    outages.nextUpAt(p, std::max(freeAt[p], now));
                if (up && *up > now)
                    consider(*up);
            }
        }
        if (!have_next) {
            if (!ready.empty() && outages.active()) {
                // Every processor is permanently out of service and
                // queries are still queued: fail cleanly (guardedMain
                // turns this into error JSON + exit 3), never hang.
                obs::Json dump = obs::Json::object();
                dump["queued"] =
                    obs::Json(static_cast<std::uint64_t>(ready.size()));
                dump["resolved"] =
                    obs::Json(static_cast<std::uint64_t>(resolved));
                dump["instances"] =
                    obs::Json(static_cast<std::uint64_t>(n));
                throw sim::SimError(
                    "query stream stalled: every processor failed "
                    "permanently with queries still queued",
                    std::move(dump));
            }
            throw std::logic_error("stream stalled with no pending event");
        }
        now = next;

        // Process events at `now`, (cycle, proc)-ordered: free (or
        // bury) the processor; resolutions free a closed-loop client.
        std::sort(running.begin(), running.end(),
                  [](const Running &a, const Running &b) {
                      if (a.cycle != b.cycle)
                          return a.cycle < b.cycle;
                      return a.proc < b.proc;
                  });
        while (!running.empty() && running.front().cycle <= now) {
            Running r = std::move(running.front());
            running.erase(running.begin());
            procBusy[r.proc] = 0;
            freeAt[r.proc] = r.procFreeAt;
            if (r.kind == EvKind::NodeFail)
                continue; // the instance is already re-queued
            resolve(r.id, std::move(r.rec), r.cycle);
        }
    }

    // Stream-level accounting, over records sorted into resolution
    // order. Latency/wait/service summaries cover goodput instances
    // only when the resilience layer is on (a shed instance has no
    // meaningful service time); makespan covers every resolution.
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
    std::vector<double> lat_healthy, lat_degraded;
    std::uint64_t goodput = 0;
    for (InstanceRecord &r : result.records) {
        result.makespan = std::max(result.makespan, r.complete);
        if (res_on && outages.active() && r.attempts > 0)
            r.degraded = outages.anyOutageIn(r.start, r.complete);
        if (res_on && r.outcome != Outcome::Ok)
            continue;
        ++goodput;
        lat.push_back(static_cast<double>(r.latency));
        wait.push_back(static_cast<double>(r.wait));
        service.push_back(static_cast<double>(r.service));
        by_query[tpcd::queryName(r.inst.query)].push_back(
            static_cast<double>(r.latency));
        if (res_on)
            (r.degraded ? lat_degraded : lat_healthy)
                .push_back(static_cast<double>(r.latency));
    }
    result.latency = summarize(lat);
    result.wait = summarize(wait);
    result.service = summarize(service);
    for (const auto &kv : by_query)
        result.byQuery.emplace_back(kv.first, summarize(kv.second));
    if (result.makespan > 0)
        result.throughputPerMcycle =
            static_cast<double>(goodput) /
            (static_cast<double>(result.makespan) / 1e6);
    result.cache = cache_->stats();

    if (res_on) {
        ResilienceReport &rep = result.resilience;
        rep.config = res_;
        for (const auto &kv : slo) {
            rep.byClass.emplace_back(kv.first, kv.second);
            rep.total.submitted += kv.second.submitted;
            rep.total.goodput += kv.second.goodput;
            rep.total.timeouts += kv.second.timeouts;
            rep.total.shedQueue += kv.second.shedQueue;
            rep.total.shedBreaker += kv.second.shedBreaker;
            rep.total.shedExpired += kv.second.shedExpired;
            rep.total.abandoned += kv.second.abandoned;
            rep.total.migrations += kv.second.migrations;
        }
        rep.healthy = summarize(lat_healthy);
        rep.degraded = summarize(lat_degraded);
        rep.breakerTrips = breaker.trips();
        rep.breakerRecoveries = breaker.recoveries();
        rep.breakerStates = breaker.stateNames();
        counters_.breakerTrips = rep.breakerTrips;
        counters_.breakerRecoveries = rep.breakerRecoveries;
        if (outages.active()) {
            rep.outages = outages.outagesIn(0, result.makespan);
            rep.degradedCycles =
                outages.degradedCyclesIn(0, result.makespan);
            // Count the windows the stream actually lived through into
            // the fault plan's log, so fault.injected.node_failure shows
            // up beside the other kinds.
            if (opts_.faults) {
                for (const OutageWindow &w : rep.outages)
                    opts_.faults->recordNodeFailure(
                        w.proc, w.index,
                        w.permanent ? 0 : w.end - w.start);
            }
        }
    }

    // End-of-stream registry snapshot: machine counters plus the stream
    // layer's own (runOnMachine never snapshots; runCold's equivalent
    // happens here so the JSON report sees the whole warm stream).
    if (opts_.registrySnapshot) {
        obs::Registry reg;
        machine_.registerStats(reg);
        if (opts_.checker)
            opts_.checker->registerStats(reg, "check");
        if (opts_.faults)
            opts_.faults->registerStats(reg, "fault");
        cache_->registerStats(reg, "cache");
        if (opts_.retryStats)
            opts_.retryStats->registerStats(reg, "harness.retry");
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
    reg.addCounter(obs::metricName(prefix, "goodput"),
                   [this] { return counters_.completed; });
    reg.addCounter(obs::metricName(prefix, "timeouts"),
                   [this] { return counters_.timeouts; });
    reg.addCounter(obs::metricName(prefix, "migrations"),
                   [this] { return counters_.migrations; });
    reg.addCounter(obs::metricName(prefix, "shed.queue"),
                   [this] { return counters_.shedQueue; });
    reg.addCounter(obs::metricName(prefix, "shed.breaker"),
                   [this] { return counters_.shedBreaker; });
    reg.addCounter(obs::metricName(prefix, "shed.expired"),
                   [this] { return counters_.shedExpired; });
    reg.addCounter(obs::metricName(prefix, "abandoned"),
                   [this] { return counters_.abandoned; });
    reg.addCounter(obs::metricName(prefix, "breaker.trips"),
                   [this] { return counters_.breakerTrips; });
    reg.addCounter(obs::metricName(prefix, "breaker.recoveries"),
                   [this] { return counters_.breakerRecoveries; });
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

    if (r.resilienceEnabled)
        j["resilience"] = toJson(r.resilience);

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
        if (r.resilienceEnabled) {
            e["outcome"] = obs::Json(std::string(outcomeName(rec.outcome)));
            e["attempts"] = obs::Json(rec.attempts);
            e["migrations"] = obs::Json(rec.migrations);
            if (rec.deadline)
                e["deadline"] = obs::Json(rec.deadline);
            e["degraded"] = obs::Json(rec.degraded);
        }
        if (include_run_stats && rec.attempts > 0)
            e["stats"] = obs::toJson(rec.stats);
        records.push(std::move(e));
    }
    j["records"] = std::move(records);
    return j;
}

} // namespace sched
} // namespace dss
