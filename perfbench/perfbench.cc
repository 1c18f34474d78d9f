/**
 * @file
 * Host-time benchmark program: runs one workload for a fixed time and
 * prints one JSON document on stdout. run.py builds this binary, turns
 * the document into metrics and checks every simulated result in it.
 *
 * Workloads (README.md gives the reasons and the metric map):
 *
 *  - paper_sweep   paper-scale DB, Q3/Q6/Q12 captured once on 4
 *                  processors, each replayed cold on paper1997 at 32, 64
 *                  and 128 B coherent lines — how every paper figure is
 *                  made;
 *  - query_stream  tiny DB, four closed-loop streams of many short solo
 *                  replays on a warm machine, each through a fresh
 *                  unbounded TraceCache;
 *  - model_check   exhaustive 2-processor x 2-line protocol search on the
 *                  paper1997 and modern presets.
 *
 * The document holds every checked result as the obs layer serializes it,
 * written out as each unit of work (a replay, a stream, a search) ends;
 * then, per measured iteration, the wall time of its set-up and of each
 * unit; the spans recorded around calls into tpcd, db, sim, sched, verify
 * and obs, and per-call timing samples re-timed after the measured phase
 * (traced run only); exact counts; and the process's peak RSS.
 *
 * Only entry points that outlive the planned engine and table rewrites
 * are called: harness::runCold with default RunOptions,
 * sched::StreamScheduler, verify::ProtocolVerifier, ProtocolModel::apply,
 * and the sim::Machine constructor and resetMemoryState.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "sched/scheduler.hh"
#include "sim/spec.hh"
#include "verify/model.hh"
#include "verify/verifier.hh"

using namespace dss;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
};

/**
 * Spans around calls into the simulator's modules, kept in memory and
 * written out with the document. Each span carries the set-up or
 * iteration index and the unit of work it ran under, and the index of
 * the span that was open when it started. Spans are recorded only while
 * `layers` is set, so untraced iterations pay one branch per call site.
 */
class Tracer
{
  public:
    bool layers = false;

    /** Attribute the spans that follow to iteration @p iter of @p unit. */
    void
    at(int iter, std::string unit)
    {
        iter_ = iter;
        unit_ = std::move(unit);
    }

    class Span
    {
      public:
        Span(Tracer &t, const char *name) : t_(t.layers ? &t : nullptr)
        {
            if (!t_)
                return;
            idx_ = static_cast<int>(t_->spans_.size());
            t_->spans_.push_back({name, t_->unit_, t_->iter_, t_->open_,
                                  since(t_->origin_), 0.0});
            t_->open_ = idx_;
        }

        ~Span()
        {
            if (!t_)
                return;
            Rec &r = t_->spans_[static_cast<std::size_t>(idx_)];
            r.t1 = since(t_->origin_);
            t_->open_ = r.parent;
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    obs::Json
    toJson() const
    {
        obs::Json out = obs::Json::array();
        for (const Rec &r : spans_) {
            obs::Json s = obs::Json::object();
            s["name"] = r.name;
            s["unit"] = r.unit;
            s["iter"] = r.iter;
            s["parent"] = r.parent;
            s["t0"] = r.t0;
            s["t1"] = r.t1;
            out.push(std::move(s));
        }
        return out;
    }

  private:
    struct Rec
    {
        std::string name;
        std::string unit;
        int iter;
        int parent;
        double t0, t1;
    };

    std::vector<Rec> spans_;
    int open_ = -1;
    int iter_ = -1;
    std::string unit_;
    Clock::time_point origin_ = Clock::now();
};

/** Iterations each side (untraced, traced) gets at least, so every unit
 * time is the fastest of three or more. */
constexpr int kMinIters = 3;

/** Samples per re-timed call: enough for ten beyond the 99th percentile. */
constexpr int kProbeSamples = 1000;

struct Bench
{
    Args args;
    Tracer tr;
    /** Per iteration: {traced, setup_s, units{key: seconds}}. */
    obs::Json iterations = obs::Json::array();
    obs::Json samples = obs::Json::object(); ///< name -> [values]
    obs::Json counts = obs::Json::object();  ///< name -> exact count

    /**
     * Write one checked result {kind, key, value[, cached_hashes]} to
     * stdout, so no result is held in memory: @p report is its JSON text,
     * and @p cachedHashes, for a stream, gives per record the content hash
     * of the trace its cache holds for the record's key.
     */
    void
    result(const char *kind, const std::string &key,
           const std::string &report,
           const obs::Json &cachedHashes = obs::Json())
    {
        std::cout << (firstResult_ ? "" : ",") << "{\"kind\":\"" << kind
                  << "\",\"key\":\"" << obs::jsonEscape(key)
                  << "\",\"value\":" << report;
        if (!cachedHashes.isNull())
            std::cout << ",\"cached_hashes\":" << cachedHashes.dump();
        std::cout << "}";
        firstResult_ = false;
    }

    /** End the running unit's timed part, before its own bookkeeping. */
    void stopClock() { unitEnd_ = Clock::now(); }

    void
    sample(const std::string &name, double v)
    {
        obs::Json &arr = samples[name];
        if (arr.isNull())
            arr = obs::Json::array();
        arr.push(v);
    }

    /** How many set-ups one call of measure()'s set-up callback makes;
     * the call's time is divided by it. */
    int setupBatch = 1;

    /**
     * Iterate until the run's time is up and each side has kMinIters
     * iterations. An iteration first calls @p setup, whose product every
     * @p unit call of the iteration gets with a key index; then the units
     * run in key order. Set-up is repeated per iteration so its samples
     * spread over the run like the units' do, and the previous product
     * is freed before any timer starts. The traced run alternates
     * untraced and traced iterations, so one process measures the
     * tracing overhead. A unit is timed until it calls stopClock(), or
     * returns. Returns the last product.
     */
    template <class Setup, class Unit>
    auto
    measure(const std::vector<std::string> &keys, Setup &&setup,
            Unit &&unit)
    {
        const auto start = Clock::now();
        const int min_iters = args.trace ? 2 * kMinIters : kMinIters;
        decltype(setup()) product;
        for (int i = 0;; ++i) {
            product = decltype(product)();
            // Hand the freed memory back, so every set-up faults its pages
            // in as the first one in a fresh process does.
            malloc_trim(0);
            const bool traced = args.trace && i % 2 == 1;
            tr.layers = traced;
            obs::Json it = obs::Json::object();
            it["traced"] = traced;
            tr.at(i, "setup");
            auto t0 = Clock::now();
            product = setup();
            it["setup_s"] = since(t0) / setupBatch;
            obs::Json units = obs::Json::object();
            for (std::size_t k = 0; k < keys.size(); ++k) {
                tr.at(i, keys[k]);
                unitEnd_.reset();
                t0 = Clock::now();
                unit(product, k);
                units[keys[k]] = std::chrono::duration<double>(
                                     unitEnd_.value_or(Clock::now()) - t0)
                                     .count();
            }
            it["units"] = std::move(units);
            iterations.push(std::move(it));
            if (i + 1 >= min_iters && since(start) >= args.seconds)
                break;
        }
        tr.layers = args.trace;
        return product;
    }

  private:
    bool firstResult_ = true;
    std::optional<Clock::time_point> unitEnd_;
};

// Seed 1, the default, reproduces the repository's bench defaults: DB
// seed 42, query-parameter seed 1 and stream seed 42, so its 64 B
// replays are Figure 6 itself.
std::uint64_t dbSeed(std::uint64_t seed) { return seed + 41; }
std::uint64_t paramSeed(std::uint64_t seed) { return seed; }
std::uint64_t streamSeed(std::uint64_t seed) { return seed + 41; }

sim::MachineConfig
preset(const std::string &name)
{
    return sim::machinePreset(name).config;
}

void
paperSweep(Bench &b)
{
    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};
    const unsigned lines[] = {32, 64, 128};

    const sim::MachineConfig base = preset("paper1997");
    std::vector<std::string> keys;
    std::vector<sim::MachineConfig> cfgs;
    for (tpcd::QueryId q : queries) {
        for (unsigned line : lines) {
            keys.push_back(tpcd::queryName(q) + "/" + std::to_string(line) +
                           "B");
            cfgs.push_back(base.withLineSize(line));
        }
    }

    struct Captured
    {
        std::unique_ptr<harness::Workload> wl;
        std::vector<harness::TraceSet> traces; ///< one set per query
    };
    const Captured last = b.measure(
        keys,
        [&] {
            Captured c;
            {
                Tracer::Span s(b.tr, "tpcd.dbgen");
                c.wl = std::make_unique<harness::Workload>(
                    tpcd::ScaleConfig::paperScale(), 4, dbSeed(b.args.seed));
            }
            Tracer::Span s(b.tr, "db.capture");
            for (tpcd::QueryId q : queries)
                c.traces.push_back(c.wl->trace(q, paramSeed(b.args.seed)));
            return c;
        },
        [&](const Captured &c, std::size_t k) {
            const harness::TraceSet &set = c.traces[k / std::size(lines)];
            sim::SimStats stats;
            {
                Tracer::Span s(b.tr, "sim.replay");
                stats = harness::runCold(cfgs[k], set, harness::RunOptions{});
            }
            std::string report;
            {
                Tracer::Span s(b.tr, "obs.report");
                report = obs::toJson(stats).dump();
            }
            b.stopClock();
            b.result("replay", keys[k], report);
        });

    std::uint64_t captured = 0;
    for (const harness::TraceSet &set : last.traces)
        for (const sim::TraceStream &t : set)
            captured += t.size();
    b.counts["db.captured_entries"] = captured;
    b.counts["db.trace_bytes"] = captured * sizeof(sim::TraceEntry);
    // Per iteration: every replay consumes its query's whole trace set.
    b.counts["entries"] = captured * std::size(lines);
    b.counts["items"] = keys.size();

    if (!b.args.trace)
        return;
    for (int n = 0; n < kProbeSamples; ++n) {
        const sim::MachineConfig &cfg = cfgs[n % std::size(lines)];
        const auto t0 = Clock::now();
        sim::Machine m(cfg);
        b.sample("sim.machine_build_us", 1e6 * since(t0));
    }
}

void
queryStream(Bench &b)
{
    // One stream's two parameter variants per query fix most of its work,
    // which then swings by about 8% from seed to seed; four streams with
    // their own seeds average that out. 3 queries x 2 variants x 4
    // processors = 24 keys, so at most 24 of a stream's 300 instances
    // miss its cache: a 92% hit ratio at least.
    constexpr unsigned kStreams = 4;
    constexpr unsigned kInstances = 300;

    std::vector<std::string> keys;
    std::vector<sched::StreamConfig> scfgs;
    for (unsigned j = 0; j < kStreams; ++j) {
        keys.push_back("stream" + std::to_string(j));
        sched::StreamConfig scfg;
        scfg.instances = kInstances;
        scfg.seed = streamSeed(b.args.seed) + 1000 * j;
        scfgs.push_back(scfg);
    }
    const sim::MachineConfig cfg = preset("paper1997");

    // Per stream, from its last run: replayed trace entries and resolved
    // instances. Only the traced run, which reports no peak RSS, keeps each
    // stream's cache and its records' keys for the probes; an untraced run
    // frees them as the unit ends, so its peak RSS is one stream's.
    using Key = sched::TraceCache::Key;
    std::vector<std::uint64_t> entries(kStreams), instances(kStreams);
    std::vector<std::unique_ptr<sched::TraceCache>> caches(kStreams);
    std::vector<std::vector<Key>> replayedKeys(kStreams);
    const std::unique_ptr<harness::Workload> wl = b.measure(
        keys,
        [&] {
            std::unique_ptr<harness::Workload> w;
            {
                Tracer::Span s(b.tr, "tpcd.dbgen");
                w = std::make_unique<harness::Workload>(
                    tpcd::ScaleConfig::tiny(), 4, dbSeed(b.args.seed));
            }
            // Lazy one-time set-up of stream captures, done before timing.
            w->primeStreamMetadata();
            return w;
        },
        [&](const std::unique_ptr<harness::Workload> &w, std::size_t k) {
            auto cache = std::make_unique<sched::TraceCache>();
            sched::StreamResult r;
            {
                Tracer::Span s(b.tr, "sched.run");
                sched::StreamScheduler sch(*w, cfg, scfgs[k],
                                           harness::RunOptions{},
                                           cache.get());
                r = sch.run();
            }
            std::string report;
            {
                Tracer::Span s(b.tr, "obs.report");
                report = sched::toJson(r, /*include_run_stats=*/false).dump();
            }
            b.stopClock();

            // Per record, the hash of the trace the cache holds for its
            // key (0 if none), each key hashed once.
            std::map<Key, std::uint64_t> hashOf;
            obs::Json cached = obs::Json::array();
            std::vector<Key> replayed;
            entries[k] = 0;
            for (const sched::InstanceRecord &rec : r.records) {
                const Key key{rec.inst.query, rec.inst.paramSeed, rec.proc};
                auto [it, fresh] = hashOf.try_emplace(key);
                if (fresh)
                    it->second = cache->contentHashOf(key);
                cached.push(it->second);
                if (const sim::TraceStream *t = cache->lookup(key))
                    entries[k] += t->size();
                replayed.push_back(key);
            }
            instances[k] = r.records.size();
            b.result("stream", keys[k], report, cached);
            if (b.args.trace) {
                caches[k] = std::move(cache);
                replayedKeys[k] = std::move(replayed);
            }
        });

    std::uint64_t allEntries = 0, allInstances = 0;
    for (unsigned j = 0; j < kStreams; ++j) {
        allEntries += entries[j];
        allInstances += instances[j];
    }
    b.counts["entries"] = allEntries;
    b.counts["items"] = allInstances;
    b.counts["sched.replayed_entries"] = allEntries;

    if (!b.args.trace)
        return;
    // The streams' traces, as their instances replayed them; each
    // stream's distinct keys are the captures its misses made.
    std::vector<const sim::TraceStream *> replayed;
    std::vector<Key> missed;
    for (unsigned j = 0; j < kStreams; ++j) {
        std::set<Key> seen;
        for (const Key &key : replayedKeys[j]) {
            if (const sim::TraceStream *t = caches[j]->lookup(key))
                replayed.push_back(t);
            seen.insert(key);
        }
        missed.insert(missed.end(), seen.begin(), seen.end());
    }
    for (int k = 0; k < kMinIters; ++k) {
        b.tr.at(k, "probe");
        {
            Tracer::Span s(b.tr, "sched.hash");
            for (const sim::TraceStream *t : replayed)
                t->contentHash();
        }
        // Captures are pure, so re-running the streams' misses measures
        // what their capture cost without changing any later result.
        Tracer::Span s(b.tr, "db.capture");
        for (const Key &key : missed)
            wl->streamTrace(key.query, key.paramSeed, key.proc);
    }
}

void
modelCheck(Bench &b)
{
    const std::vector<std::string> presets = {"paper1997", "modern"};
    using Models = std::vector<std::unique_ptr<verify::ProtocolModel>>;

    // Building both models takes a few microseconds, too short to time
    // once: each iteration times a batch and reports the mean.
    b.setupBatch = 500;
    std::vector<verify::VerifyResult> last(presets.size());
    const Models models = b.measure(
        presets,
        [&] {
            Models m;
            for (int n = 0; n < b.setupBatch; ++n) {
                m.clear();
                for (const std::string &p : presets)
                    m.push_back(std::make_unique<verify::ProtocolModel>(
                        preset(p), verify::ProtocolModel::Options{}));
            }
            return m;
        },
        [&](const Models &m, std::size_t k) {
            verify::VerifyResult &r = last[k];
            {
                Tracer::Span s(b.tr, "verify.run");
                r = verify::ProtocolVerifier(*m[k], verify::VerifyOptions{})
                        .run();
            }
            std::string report;
            {
                Tracer::Span s(b.tr, "obs.report");
                report = r.toJson().dump();
            }
            b.stopClock();
            b.result("search", presets[k], report);
        });

    // Each transition drives one synthesized event through the pipelines.
    std::uint64_t transitions = 0, states = 0;
    for (const verify::VerifyResult &r : last) {
        transitions += r.transitions;
        states += r.states;
    }
    b.counts["entries"] = transitions;
    b.counts["items"] = states;

    if (!b.args.trace)
        return;
    std::uint64_t rng = b.args.seed;
    for (std::size_t i = 0; i < presets.size(); ++i) {
        sim::Machine m(verify::ProtocolModel::modelConfig(
            preset(presets[i]), 2, 1));
        for (int n = 0; n < kProbeSamples; ++n) {
            const auto t0 = Clock::now();
            m.resetMemoryState();
            b.sample("sim.model_reset_us." + presets[i], 1e6 * since(t0));
        }
        // A seeded random walk through the model, restarted from the
        // cold state every 32 steps, reaches shallow and deep states.
        verify::ProtocolModel &model = *models[i];
        verify::AbstractState s = model.initial();
        std::vector<verify::Event> evs;
        for (int n = 0; n < kProbeSamples; ++n) {
            if (n % 32 == 0)
                s = model.initial();
            model.enumerate(s, evs);
            const verify::Event ev = evs[sched::splitmix64(rng) % evs.size()];
            const auto t0 = Clock::now();
            verify::ProtocolModel::StepResult step = model.apply(s, ev);
            b.sample("verify.apply_us." + presets[i], 1e6 * since(t0));
            s = std::move(step.next);
        }
    }
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper_sweep|query_stream|"
                 "model_check --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[i + 1];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench b;
    b.args = parseArgs(argc, argv);
    void (*workload)(Bench &) = nullptr;
    if (b.args.workload == "paper_sweep")
        workload = paperSweep;
    else if (b.args.workload == "query_stream")
        workload = queryStream;
    else if (b.args.workload == "model_check")
        workload = modelCheck;
    else
        usage("unknown workload '" + b.args.workload + "'");

    // The results go out as the units write them; the document's other
    // keys follow.
    std::cout << "{\"results\":[";
    workload(b);

    // ru_maxrss is a process high-water mark: this process ran only the
    // one workload. Read it before the rest of the document is assembled.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    obs::Json doc = obs::Json::object();
    doc["workload"] = b.args.workload;
    doc["seed"] = b.args.seed;
    doc["traced"] = b.args.trace;
    doc["peak_rss_kb"] = static_cast<std::int64_t>(ru.ru_maxrss);
    doc["iterations"] = std::move(b.iterations);
    doc["spans"] = b.tr.toJson();
    doc["samples"] = std::move(b.samples);
    doc["counts"] = std::move(b.counts);
    std::string rest = doc.dump();
    rest.front() = ',';
    std::cout << "]" << rest << "\n";
    return 0;
}
