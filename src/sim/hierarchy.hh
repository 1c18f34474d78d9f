/**
 * @file
 * Declarative N-level cache hierarchy: the ordered level chain a
 * MachineConfig is built from, plus its validation rules.
 *
 * A machine's memory side is a chain of LevelConfigs, index 0 nearest the
 * processor. Level 0 is the write-through, no-write-allocate primary
 * cache; every deeper level allocates on demand; the *last* level is the
 * coherent level — the one the directory tracks, the one that may hold
 * dirty data, and the one whose line size sets the coherence granularity.
 * Intermediate levels (chains of three or more) hold clean copies only:
 * strict inclusion (every line resident at level j is resident at level
 * j+1) means an intermediate victim needs no writeback, because the level
 * below still holds the line. With exactly two levels the chain reduces
 * term-for-term to the paper's L1/L2 machine — same accesses, same fills,
 * same latencies — which is why the `paper1997` spec is bit-identical to
 * the legacy hard-coded pair (DESIGN.md §17 gives the argument).
 *
 * Validation is centralized here (validateMachineConfig): geometry and
 * latency mistakes — non-power-of-two sizes, a line larger than its
 * cache, non-nested line sizes, non-monotonic hit latencies — throw a
 * structured SimError naming the offending level instead of silently
 * mangling set indices.
 */

#ifndef DSS_SIM_HIERARCHY_HH
#define DSS_SIM_HIERARCHY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/addr.hh"
#include "sim/cache.hh"

namespace dss {
namespace sim {

struct MachineConfig;

/** Most levels a chain may declare ("l1" through "l4"). */
constexpr std::size_t kMaxCacheLevels = 4;

/**
 * One level of the chain: cache geometry plus the round-trip hit latency
 * charged when a read is satisfied at this level. Every cache latency
 * lives here: level 0's hitCycles is the no-stall L1 hit cost, the
 * baseline every read's stall is measured from.
 */
struct LevelConfig : CacheConfig
{
    /** Round trip to this level on a hit. Quoted for a 32 B level-0
     * line; at levels >= 1, longer level-0 lines add their extra
     * transfer time. */
    Cycles hitCycles = 16;
};

/** The ordered level chain, index 0 nearest the processor. */
using LevelChain = std::vector<LevelConfig>;

/** Registry/JSON name of level @p lvl: "l1", "l2", "l3", "l4". */
std::string levelName(std::size_t lvl);

/** The paper's baseline chain: 4 KB/32 B direct-mapped write-through L1
 * over a 128 KB/64 B 2-way write-back L2 with a 16-cycle round trip. */
LevelChain paperLevels();

/**
 * Validate one level's geometry in isolation: power-of-two size and line
 * size, line no larger than the cache, associativity dividing the line
 * count into a power-of-two number of sets. Throws SimError with a
 * structured dump naming @p name.
 */
void validateLevel(const LevelConfig &level, const std::string &name);

/**
 * Validate a whole chain: 2..kMaxCacheLevels levels, each level valid in
 * isolation, line sizes nested (each level's line divides the next
 * level's), capacities non-decreasing, hit latencies strictly increasing
 * from level 0 on. Throws SimError.
 */
void validateLevels(const LevelChain &levels);

/**
 * Validate a full machine description: its level chain, processor count
 * (1..64 — the directory's sharer bitmask is 64 bits wide), page size,
 * and latency monotonicity (level hit latencies < local memory <= 2-hop
 * <= 3-hop). Machine's constructor calls this, so no simulation ever
 * starts on a malformed configuration. Throws SimError.
 */
void validateMachineConfig(const MachineConfig &cfg);

} // namespace sim
} // namespace dss

#endif // DSS_SIM_HIERARCHY_HH
