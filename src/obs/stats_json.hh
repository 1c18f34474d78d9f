/**
 * @file
 * JSON serialization of the simulator's statistics and configuration.
 *
 * toJson(SimStats) embeds the derived quantities the paper's figures are
 * built from — the Fig 6a Busy/Mem/MSync fractions, the Fig 6b memory
 * -stall decomposition by structure group, and the Fig 7 miss tables — so
 * a run's JSON file is self-contained: no consumer needs to re-derive the
 * breakdowns from raw counters (though the raw counters are all there
 * too). The percentage fields use the same arithmetic as the text tables
 * in harness/report.cc, which a test pins down.
 */

#ifndef DSS_OBS_STATS_JSON_HH
#define DSS_OBS_STATS_JSON_HH

#include "obs/json.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"

namespace dss {
namespace obs {

/** Per class x type miss counts; zero rows omitted, totals included. */
Json toJson(const sim::MissTable &t);

/** Raw counters of one processor plus its derived miss rates. */
Json toJson(const sim::ProcStats &p);

/**
 * Whole-run statistics: per-processor stats, the aggregate, execution
 * time, and the figure-style breakdowns (busyPct/memPct/msyncPct of total
 * time; memByGroupPct of memory stall).
 */
Json toJson(const sim::SimStats &s);

Json toJson(const sim::LevelConfig &l);
Json toJson(const sim::LatencyConfig &l);

/**
 * The machine-spec document sim::specFromJson reads back (sim/spec.hh):
 * nprocs, the level chain with each level's hit latency, the write
 * buffer, page size, memory-side latencies and the prefetch/issue knobs.
 * Reports embed it as "config", so a report's config block is itself a
 * valid --machine file that reproduces the run.
 */
Json toJson(const sim::MachineConfig &m);

} // namespace obs
} // namespace dss

#endif // DSS_OBS_STATS_JSON_HH
