#include "harness/options.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <type_traits>

#include "obs/stats_json.hh"
#include "sim/spec.hh"

namespace dss {
namespace harness {

namespace {

/**
 * @p v as a decimal count in [@p lo, @p hi]. Only digits pass: a sign,
 * a space or a base prefix is rejected, and so is a value past @p hi,
 * overflow included, instead of wrapping.
 */
std::optional<std::uint64_t>
parseCount(const std::string &v, std::uint64_t lo, std::uint64_t hi)
{
    if (v.empty())
        return std::nullopt;
    std::uint64_t n = 0;
    for (const char c : v) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (n > hi / 10 || d > hi - n * 10)
            return std::nullopt;
        n = n * 10 + d;
    }
    if (n < lo)
        return std::nullopt;
    return n;
}

void
usage(std::ostream &os, const std::string &bench, unsigned flags)
{
    os << "usage: " << bench << " [options]\n";
    if (flags & BenchOptions::kJson)
        os << "  --json <path>    write a machine-readable JSON report\n";
    if (flags & BenchOptions::kTrace)
        os << "  --trace <path>   write a Chrome trace-event timeline\n"
           << "                   (open in chrome://tracing or Perfetto)\n";
    if (flags & BenchOptions::kEpoch)
        os << "  --epoch <cycles> sample counters every N simulated "
              "cycles\n";
    if (flags & BenchOptions::kScale)
        os << "  --scale <name>   database population: paper (default), "
              "tiny\n";
    if (flags & BenchOptions::kCheck)
        os << "  --check          validate coherence invariants at every "
              "state\n"
           << "                   transition (SWMR, directory/cache "
              "agreement,\n"
           << "                   write-buffer FIFO, lock-table "
              "consistency)\n";
    if (flags & BenchOptions::kFault)
        os << "  --fault-rate <p> inject deterministic faults with "
              "per-opportunity\n"
           << "                   probability p in [0,1] (0 disables)\n"
           << "  --fault-seed <n> seed for the fault schedule (the same "
              "seed\n"
           << "                   replays the same schedule)\n";
    if (flags & BenchOptions::kPlacement)
        os << "  --placement <p>  NUMA page-placement policy: "
           << sim::PlacementSpec::help() << '\n';
    if (flags & BenchOptions::kStream)
        os << "  --stream <n>     query-stream scheduler: number of query\n"
              "                   instances in the arrival stream\n"
           << "  --stream-seed <s>\n"
              "                   seed for the arrival times, query mix "
              "and\n"
              "                   per-instance parameters\n"
           << "  --stream-policy <p>\n"
              "                   dispatch policy: fifo (default), "
              "shortest\n";
    if (flags & BenchOptions::kMachine)
        os << "  --machine <m>    machine spec: a preset (paper1997 "
              "default,\n"
              "                   modern, scaled64), a JSON spec file, or\n"
              "                   'list' to print the presets\n";
    if (flags & BenchOptions::kVerify)
        os << "  --verify-procs <n>\n"
              "                   model processors in the exhaustive "
              "search\n"
              "                   (2-6; symmetry-reduced)\n"
           << "  --verify-lines <n>\n"
              "                   tracked shared coherent lines (1-6), "
              "plus\n"
              "                   one metalock word\n"
           << "  --verify-wb <n>  model write-buffer capacity (1-7)\n"
           << "  --verify-depth <n>\n"
              "                   BFS depth bound (default: exhaust the\n"
              "                   reachable state space)\n"
           << "  --verify-mutant <k|all>\n"
              "                   inject known protocol mutation k (1-4) "
              "and\n"
              "                   require the checker to catch it; 'all' "
              "runs\n"
              "                   every mutant in sequence\n";
    if (flags & BenchOptions::kMemprof)
        os << "  --memprof[=N]    line-level memory profiler: hot lines "
              "with\n"
           << "                   true/false-sharing splits, conflict "
              "sets and\n"
           << "                   structure symbols in the JSON report's\n"
           << "                   \"memprof\" block (top N entries, "
              "default 20)\n";
    os << "  --help           show this message\n";
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv, const std::string &bench_name,
                    unsigned flags)
{
    BenchOptions opts;
    auto fail = [&]() -> void {
        usage(std::cerr, bench_name, flags);
        std::exit(2);
    };
    auto needValue = [&](int i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << bench_name << ": " << argv[i]
                      << " requires a value\n";
            std::exit(2);
        }
        return argv[i + 1];
    };
    // Store the decimal count @p v in @p out, within [lo, hi] and the
    // range of out's type, or exit 2 saying what @p what needs.
    auto count = [&](const std::string &v, const char *what,
                     const char *need, auto &out, std::uint64_t lo = 1,
                     std::uint64_t hi = ~std::uint64_t{0}) {
        using T = std::remove_reference_t<decltype(out)>;
        hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
        const std::optional<std::uint64_t> n = parseCount(v, lo, hi);
        if (!n) {
            std::cerr << bench_name << ": " << what << " needs " << need
                      << ", got '" << v << "'\n";
            std::exit(2);
        }
        out = static_cast<T>(*n);
    };
    auto supported = [&](const std::string &arg, unsigned flag) -> bool {
        if (flags & flag)
            return true;
        std::cerr << bench_name << ": option '" << arg
                  << "' is not supported by this bench\n";
        fail();
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout, bench_name, flags);
            std::exit(0);
        } else if (arg == "--json" && supported(arg, kJson)) {
            opts.jsonPath = needValue(i++);
        } else if (arg == "--trace" && supported(arg, kTrace)) {
            opts.tracePath = needValue(i++);
        } else if (arg == "--epoch" && supported(arg, kEpoch)) {
            count(needValue(i++), "--epoch", "a positive count",
                  opts.epochCycles);
        } else if (arg == "--scale" && supported(arg, kScale)) {
            opts.scale = needValue(i++);
            if (opts.scale != "paper" && opts.scale != "tiny") {
                std::cerr << bench_name << ": unknown --scale '"
                          << opts.scale << "' (paper, tiny)\n";
                std::exit(2);
            }
        } else if (arg == "--check" && supported(arg, kCheck)) {
            opts.check = true;
        } else if (arg == "--fault-seed" && supported(arg, kFault)) {
            count(needValue(i++), "--fault-seed", "an integer",
                  opts.faultSeed, 0);
        } else if (arg == "--fault-rate" && supported(arg, kFault)) {
            const std::string v = needValue(i++);
            char *end = nullptr;
            double r = std::strtod(v.c_str(), &end);
            if (!end || *end != '\0' || v.empty() || r < 0.0 || r > 1.0) {
                std::cerr << bench_name
                          << ": --fault-rate needs a probability in "
                             "[0,1], got '"
                          << v << "'\n";
                std::exit(2);
            }
            opts.faultRate = r;
        } else if (arg == "--placement" && supported(arg, kPlacement)) {
            const std::string v = needValue(i++);
            auto spec = sim::PlacementSpec::parse(v);
            if (!spec) {
                std::cerr << bench_name << ": unknown --placement '" << v
                          << "' (" << sim::PlacementSpec::help() << ")\n";
                std::exit(2);
            }
            opts.placement = *spec;
        } else if (arg == "--stream" && supported(arg, kStream)) {
            count(needValue(i++), "--stream", "a positive count",
                  opts.streamInstances);
        } else if (arg == "--stream-seed" && supported(arg, kStream)) {
            count(needValue(i++), "--stream-seed", "an integer",
                  opts.streamSeed, 0);
        } else if (arg == "--stream-policy" && supported(arg, kStream)) {
            opts.streamPolicy = needValue(i++);
            if (opts.streamPolicy != "fifo" &&
                opts.streamPolicy != "shortest") {
                std::cerr << bench_name << ": unknown --stream-policy '"
                          << opts.streamPolicy << "' (fifo, shortest)\n";
                std::exit(2);
            }
        } else if (arg == "--machine" && supported(arg, kMachine)) {
            opts.machine = needValue(i++);
            if (opts.machine == "list") {
                for (const std::string &n : sim::machinePresetNames())
                    std::cout << n << '\n';
                std::exit(0);
            }
        } else if (arg == "--verify-procs" && supported(arg, kVerify)) {
            count(needValue(i++), "--verify-procs", "a positive count",
                  opts.verifyProcs);
        } else if (arg == "--verify-lines" && supported(arg, kVerify)) {
            count(needValue(i++), "--verify-lines", "a positive count",
                  opts.verifyLines);
        } else if (arg == "--verify-wb" && supported(arg, kVerify)) {
            count(needValue(i++), "--verify-wb", "a positive count",
                  opts.verifyWb);
        } else if (arg == "--verify-depth" && supported(arg, kVerify)) {
            count(needValue(i++), "--verify-depth", "a positive count",
                  opts.verifyDepth);
        } else if (arg == "--verify-mutant" && supported(arg, kVerify)) {
            const std::string v = needValue(i++);
            if (v == "all")
                opts.verifyMutant = -1;
            else
                count(v, "--verify-mutant", "1-4 or 'all'",
                      opts.verifyMutant, 1, 4);
        } else if (arg == "--memprof" && supported(arg, kMemprof)) {
            opts.memprof = true;
        } else if (arg.rfind("--memprof=", 0) == 0 &&
                   supported(arg, kMemprof)) {
            count(arg.substr(10), "--memprof=N", "a positive count",
                  opts.memprofTopN, 1, 100000);
            opts.memprof = true;
        } else {
            std::cerr << bench_name << ": unknown option '" << arg
                      << "'\n";
            fail();
        }
    }
    return opts;
}

tpcd::ScaleConfig
BenchOptions::scaleConfig() const
{
    return scale == "tiny" ? tpcd::ScaleConfig::tiny()
                           : tpcd::ScaleConfig::paperScale();
}

sim::FaultConfig
BenchOptions::faultConfig() const
{
    sim::FaultConfig fc;
    fc.seed = faultSeed;
    fc.rate = faultRate;
    return fc;
}

std::unique_ptr<sim::PlacementPolicy>
makePlacement(const BenchOptions &opts, const sim::MachineConfig &cfg,
              const sim::AddressSpace *space)
{
    // parse() cannot tell whether the machine has the node: the bench
    // picks its machine later, and some shrink it below --machine.
    const std::optional<sim::ProcId> node = opts.placement.node;
    if (node && *node >= cfg.nprocs) {
        std::cerr << "--placement " << opts.placement.str()
                  << " names node " << *node
                  << ", but the machine's node count is " << cfg.nprocs
                  << '\n';
        std::exit(2);
    }
    const sim::PlacementPolicy::Geometry g{
        cfg.nprocs, cfg.pageBytes, sim::AddressSpace::kPrivateBase,
        sim::AddressSpace::kPrivateStride};
    return sim::PlacementPolicy::make(opts.placement, g, space);
}

ObsSession::ObsSession(std::string bench_name, BenchOptions opts)
    : bench_(std::move(bench_name)), opts_(std::move(opts)),
      runs_(obs::Json::array()), extra_(obs::Json::object())
{
    if (opts_.epochCycles > 0)
        sampler_ = std::make_unique<obs::Sampler>(opts_.epochCycles);
    if (!opts_.tracePath.empty())
        timeline_ = std::make_unique<obs::Timeline>();
    if (opts_.check)
        checker_ = std::make_unique<sim::InvariantChecker>();
    if (opts_.faultRate > 0.0)
        faults_ = std::make_unique<sim::FaultPlan>(opts_.faultConfig());
}

void
ObsSession::wireMemprof(const sim::MachineConfig &cfg,
                        const db::Catalog *catalog)
{
    if (!opts_.memprof)
        return;
    memProfile_ = std::make_unique<obs::MemProfile>(cfg);
    symbols_ = obs::RegionMap();
    if (catalog)
        catalog->describeRegions(symbols_);
}

RunOptions
ObsSession::runOptions()
{
    RunOptions ro;
    ro.sampler = sampler();
    ro.timeline = timeline();
    ro.registrySnapshot = registrySlot();
    ro.checker = checker_.get();
    ro.faults = faults_.get();
    ro.placement = placement_.get();
    ro.memProfile = memProfile_.get();
    return ro;
}

obs::Json *
ObsSession::registrySlot()
{
    if (!wantJson())
        return nullptr;
    pendingRegistry_ = obs::Json();
    return &pendingRegistry_;
}

void
ObsSession::addRun(const std::string &label, const sim::SimStats &stats)
{
    if (!wantJson())
        return;
    obs::Json run = obs::Json::object();
    run["label"] = label;
    run["stats"] = obs::toJson(stats);
    if (!pendingRegistry_.isNull()) {
        run["counters"] = std::move(pendingRegistry_);
        pendingRegistry_ = obs::Json();
    }
    runs_.push(std::move(run));
}

bool
ObsSession::finish(const sim::MachineConfig &cfg, std::ostream &err)
{
    bool ok = true;
    if (wantJson()) {
        obs::Json doc = obs::Json::object();
        doc["bench"] = bench_;
        doc["scale"] = opts_.scale;
        doc["config"] = obs::toJson(cfg);
        doc["runs"] = std::move(runs_);
        if (extra_.size() > 0)
            for (const auto &[k, v] : extra_.members())
                doc[k] = v;
        if (sampler_)
            doc["epochs"] = sampler_->toJson();
        if (memProfile_) {
            doc["memprof"] = memProfile_->toJson(
                opts_.memprofTopN,
                symbols_.empty() ? nullptr : &symbols_);
        }
        if (checker_)
            doc["check"] = checker_->toJson();
        if (faults_)
            doc["fault"] = faults_->toJson();
        std::ofstream os(opts_.jsonPath);
        if (!os) {
            err << bench_ << ": cannot write " << opts_.jsonPath << '\n';
            ok = false;
        } else {
            doc.dump(os, 2);
            os << '\n';
            err << "wrote JSON report to " << opts_.jsonPath << '\n';
        }
    }
    if (checker_) {
        const std::uint64_t n = checker_->totalViolations();
        err << bench_ << ": invariant checker found " << n
            << " violation(s)\n";
        if (n > 0) {
            for (const sim::CheckViolation &v : checker_->violations())
                err << "  [" << invariantName(v.inv) << "] " << v.detail
                    << '\n';
            ok = false;
        }
    }
    if (faults_) {
        err << bench_ << ": injected " << faults_->counters().injected
            << " fault(s)\n";
    }
    if (memProfile_) {
        err << bench_ << ": memory profiler tracked "
            << memProfile_->lines().size() << " cache line(s), "
            << symbols_.size() << " symbol region(s)\n";
    }
    if (timeline_) {
        std::ofstream os(opts_.tracePath);
        if (!os) {
            err << bench_ << ": cannot write " << opts_.tracePath << '\n';
            ok = false;
        } else {
            timeline_->writeChromeJson(os);
            os << '\n';
            err << "wrote Chrome trace to " << opts_.tracePath
                << " (open in chrome://tracing or https://ui.perfetto.dev)"
                << '\n';
        }
    }
    return ok;
}

} // namespace harness
} // namespace dss
