#include "obs/sampler.hh"

#include <stdexcept>

namespace dss {
namespace obs {

Sampler::Sampler(sim::Cycles epoch_cycles) : epochCycles_(epoch_cycles)
{
    if (epoch_cycles == 0)
        throw std::invalid_argument("Sampler: epoch must be > 0 cycles");
}

void
Sampler::beginRun(std::size_t nprocs)
{
    run_ = inRun_ ? run_ + 1 : run_;
    inRun_ = true;
    epochStart_ = 0;
    nextBoundary_ = epochCycles_;
    last_.assign(nprocs, sim::ProcStats{});
}

void
Sampler::emit(sim::Cycles end, const std::vector<sim::ProcStats> &cumulative)
{
    EpochSample s;
    s.run = run_;
    s.start = epochStart_;
    s.end = end;
    s.procs.reserve(cumulative.size());
    for (std::size_t p = 0; p < cumulative.size(); ++p) {
        sim::ProcStats d = cumulative[p];
        if (p < last_.size())
            d -= last_[p];
        s.procs.push_back(std::move(d));
    }
    samples_.push_back(std::move(s));
    last_ = cumulative;
    epochStart_ = end;
}

void
Sampler::sample(sim::Cycles min_clock,
                const std::vector<sim::ProcStats> &cumulative)
{
    if (!due(min_clock))
        return;
    // Close every boundary crossed as one interval (see header).
    const sim::Cycles end = (min_clock / epochCycles_) * epochCycles_;
    emit(end, cumulative);
    nextBoundary_ = end + epochCycles_;
}

void
Sampler::finishRun(sim::Cycles end,
                   const std::vector<sim::ProcStats> &cumulative)
{
    // The final partial epoch; skipped only if no time passed since the
    // last boundary and nothing changed (avoids empty trailing samples).
    if (end > epochStart_ || samples_.empty() ||
        samples_.back().run != run_)
        emit(end, cumulative);
}

sim::ProcStats
Sampler::runTotal(unsigned run, std::size_t p) const
{
    sim::ProcStats out;
    for (const EpochSample &s : samples_)
        if (s.run == run && p < s.procs.size())
            out += s.procs[p];
    return out;
}

Json
Sampler::toJson() const
{
    Json series = Json::object();
    series["epochCycles"] = epochCycles_;
    Json arr = Json::array();
    for (const EpochSample &s : samples_) {
        Json js = Json::object();
        js["run"] = s.run;
        js["start"] = s.start;
        js["end"] = s.end;
        Json procs = Json::array();
        for (const sim::ProcStats &d : s.procs) {
            Json jp = Json::object();
            jp["busy"] = d.busy;
            jp["memStall"] = d.memStall;
            jp["syncStall"] = d.syncStall;
            jp["reads"] = d.reads;
            jp["writes"] = d.writes;
            auto missByClass = [](const sim::MissTable &t) {
                Json m = Json::object();
                for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
                    auto cls = static_cast<sim::DataClass>(c);
                    std::uint64_t n = t.byClass(cls);
                    if (n)
                        m[std::string(sim::dataClassName(cls))] = n;
                }
                return m;
            };
            jp["l1MissByClass"] = missByClass(d.l1Misses());
            jp["l2MissByClass"] = missByClass(d.l2Misses());
            procs.push(std::move(jp));
        }
        js["procs"] = std::move(procs);
        arr.push(std::move(js));
    }
    series["samples"] = std::move(arr);
    return series;
}

} // namespace obs
} // namespace dss
