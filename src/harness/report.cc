#include "harness/report.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace dss {
namespace harness {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

TextTable &
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
    return *this;
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ") << std::left
               << std::setw(static_cast<int>(width[c])) << cells[c];
        }
        os << '\n';
    };
    line(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c)
        rule += std::string(width[c], '-') + (c + 1 < headers_.size() ? "  "
                                                                      : "");
    os << rule << '\n';
    for (const auto &row : rows_)
        line(row);
}

std::string
fixed(double v, int precision)
{
    // A nan/inf that reaches a report cell would print as "nan"/"inf" and
    // poison downstream parsing; render it as "n/a" instead.
    if (!std::isfinite(v))
        return "n/a";
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string
pct(double part, double whole, int precision)
{
    const double ratio = 100.0 * part / whole;
    if (whole <= 0 || !std::isfinite(ratio))
        return fixed(0.0, precision);
    return fixed(ratio, precision);
}

TimeBreakdown
timeBreakdown(const sim::SimStats &stats)
{
    sim::ProcStats agg = stats.aggregate();
    TimeBreakdown out;
    out.total = agg.totalCycles();
    if (out.total == 0)
        return out;
    out.busy = static_cast<double>(agg.busy) / out.total;
    out.mem = static_cast<double>(agg.memStall) / out.total;
    out.msync = static_cast<double>(agg.syncStall) / out.total;
    return out;
}

MemBreakdown
memBreakdown(const sim::SimStats &stats)
{
    sim::ProcStats agg = stats.aggregate();
    MemBreakdown out;
    out.totalMem = agg.memStall;
    if (out.totalMem == 0)
        return out;
    for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
        out.byGroup[g] = static_cast<double>(agg.memStallByGroup[g]) /
                         static_cast<double>(out.totalMem);
    }
    return out;
}

void
printMissTable(std::ostream &os, const std::string &title,
               const sim::MissTable &t)
{
    const double total = static_cast<double>(t.total());
    os << title << " (cells normalized to 100 total misses)\n";
    TextTable tab({"structure", "Cold", "Conf", "Cohe", "All"});
    for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
        auto cls = static_cast<sim::DataClass>(c);
        std::uint64_t all = t.byClass(cls);
        if (all == 0)
            continue;
        tab.addRow({std::string(sim::dataClassName(cls)),
                    pct(static_cast<double>(t.of(cls, sim::MissType::Cold)),
                        total),
                    pct(static_cast<double>(t.of(cls, sim::MissType::Conf)),
                        total),
                    pct(static_cast<double>(t.of(cls, sim::MissType::Cohe)),
                        total),
                    pct(static_cast<double>(all), total)});
    }
    tab.print(os);
}

namespace {

/** @p v as a share of @p base, scaled so base = 100 ("87.5"). */
std::string
normalized(std::uint64_t v, double base)
{
    return fixed(100.0 * static_cast<double>(v) / base, 1);
}

} // namespace

void
printGroupMissSweep(std::ostream &os, const std::string &query,
                    const std::string &point_header,
                    const std::vector<SweepPoint> &points, std::size_t base)
{
    for (std::size_t level = 0; level < 2; ++level) {
        const double base_misses = std::max<double>(
            1.0, static_cast<double>(
                     points[base].stats.levelMisses[level].total()));
        TextTable tab({point_header, "Priv", "Data", "Index", "Metadata",
                       "Total"});
        for (const SweepPoint &pt : points) {
            const sim::MissTable &m = pt.stats.levelMisses[level];
            auto n = [&](sim::ClassGroup g) {
                return normalized(m.byGroup(g), base_misses);
            };
            tab.addRow({pt.label, n(sim::ClassGroup::Priv),
                        n(sim::ClassGroup::Data), n(sim::ClassGroup::Index),
                        n(sim::ClassGroup::Metadata),
                        normalized(m.total(), base_misses)});
        }
        os << query << ": " << (level == 0 ? "primary" : "secondary")
           << " cache misses\n";
        tab.print(os);
        os << '\n';
    }
}

void
printTimeSweep(std::ostream &os, const std::string &query,
               const std::string &point_header,
               const std::vector<SweepPoint> &points, std::size_t base)
{
    const double base_cycles =
        static_cast<double>(points[base].stats.totalCycles());
    TextTable tab({point_header, "Busy", "PMem", "SMem", "MSync", "Total"});
    for (const SweepPoint &pt : points) {
        const sim::ProcStats &s = pt.stats;
        tab.addRow({pt.label, normalized(s.busy, base_cycles),
                    normalized(s.pmem(), base_cycles),
                    normalized(s.smem(), base_cycles),
                    normalized(s.syncStall, base_cycles),
                    normalized(s.totalCycles(), base_cycles)});
    }
    os << query << '\n';
    tab.print(os);
    os << '\n';
}

} // namespace harness
} // namespace dss
