/**
 * @file
 * Named machine specifications: presets plus JSON machine-spec files.
 *
 * A MachineSpec is a MachineConfig with a name — the unit the harness's
 * `--machine=<preset|file.json>` flag selects. Three presets ship:
 *
 *  - `paper1997`  the paper's baseline CC-NUMA machine, bit-identical to
 *                 MachineConfig::baseline() (the default);
 *  - `modern`     a three-level chain — 32 KB/64 B/8-way L1, 256 KB 8-way
 *                 L2, 8 MB 16-way LLC — over the same CC-NUMA
 *                 interconnect, for LLC-era replays of the paper's
 *                 questions;
 *  - `scaled64`   the paper's caches on 64 nodes (the directory's full
 *                 sharer-mask width). The benches trace 4 processors and
 *                 replay them on its 64 nodes, so 60 processors idle and
 *                 the preset only spreads page homes; throughput_stream's
 *                 open-loop points are the exception and admit queries
 *                 onto all 64. The processor-scaling study is
 *                 ablation_scaling.
 *
 * Anything else is a path to a JSON file in the same schema that
 * obs-layer reports embed as their "config" block (obs::toJson of a
 * MachineConfig writes it, loadSpec parses it back — a lossless round
 * trip), plus an optional "name". Parsing is strict: unknown keys are
 * rejected with a structured SimError so a typo'd "asoc" cannot silently
 * fall back to a default, and every loaded spec passes the full
 * validateMachineConfig gauntlet before a Machine is ever built from it.
 */

#ifndef DSS_SIM_SPEC_HH
#define DSS_SIM_SPEC_HH

#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/machine.hh"

namespace dss {
namespace sim {

/** A named, validated machine description. */
struct MachineSpec
{
    std::string name; ///< preset name, or the path the spec was read from
    MachineConfig config;
};

/** Names of the built-in presets, in listing order. */
std::vector<std::string> machinePresetNames();

/** Build one preset by name; throws SimError for unknown names (the
 * message lists the valid ones). */
MachineSpec machinePreset(const std::string &name);

/**
 * Resolve `--machine`'s argument: a preset name, or — when it ends in
 * ".json" or contains a path separator — a JSON machine-spec file.
 * Throws SimError on unknown presets, unreadable files, malformed JSON,
 * unknown keys, and any validateMachineConfig failure.
 */
MachineSpec loadSpec(const std::string &nameOrPath);

/** Parse a spec from already-loaded JSON; @p name is recorded verbatim.
 * Strict: unknown keys throw SimError. */
MachineSpec specFromJson(const obs::Json &j, const std::string &name);

} // namespace sim
} // namespace dss

#endif // DSS_SIM_SPEC_HH
