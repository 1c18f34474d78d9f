/**
 * @file
 * Text reporting helpers used by the benchmark binaries to print the
 * paper's tables and figures as aligned text tables.
 */

#ifndef DSS_HARNESS_REPORT_HH
#define DSS_HARNESS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace dss {
namespace harness {

/** Simple aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    TextTable &addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Fixed-point formatting. */
std::string fixed(double v, int precision = 1);

/** Percentage of @p part in @p whole ("34.5"). */
std::string pct(double part, double whole, int precision = 1);

/** Execution-time breakdown of Figure 6a (fractions of total). */
struct TimeBreakdown
{
    sim::Cycles total = 0;
    double busy = 0, mem = 0, msync = 0;
};

TimeBreakdown timeBreakdown(const sim::SimStats &stats);

/** Mem-stall decomposition of Figure 6b (fractions of Mem). */
struct MemBreakdown
{
    sim::Cycles totalMem = 0;
    double byGroup[sim::kNumClassGroups] = {};
};

MemBreakdown memBreakdown(const sim::SimStats &stats);

/**
 * Print a Figure 7-style miss table: one row per data class with
 * Cold/Conf/Cohe columns, normalized so all cells sum to 100.
 */
void printMissTable(std::ostream &os, const std::string &title,
                    const sim::MissTable &t);

/** One point of a cache-geometry sweep: its row label and its run. */
struct SweepPoint
{
    std::string label;
    sim::ProcStats stats; ///< the run's aggregate
};

/**
 * Print @p query's Figure 8/10-style miss tables, primary cache then
 * secondary: misses by structure group at every sweep point, normalized
 * so that point @p base's total at that level (at least 1) is 100. Each
 * table ends with a blank line.
 */
void printGroupMissSweep(std::ostream &os, const std::string &query,
                         const std::string &point_header,
                         const std::vector<SweepPoint> &points,
                         std::size_t base);

/**
 * Print @p query's Figure 9/11-style time table: Busy / PMem / SMem /
 * MSync at every sweep point, normalized so that point @p base's total
 * cycles are 100. Ends with a blank line.
 */
void printTimeSweep(std::ostream &os, const std::string &query,
                    const std::string &point_header,
                    const std::vector<SweepPoint> &points,
                    std::size_t base);

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_REPORT_HH
