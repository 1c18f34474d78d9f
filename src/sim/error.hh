/**
 * @file
 * Typed simulator failure carrying a structured machine-state dump.
 *
 * A SimError replaces the bare asserts the replay used to die with: when
 * the machine reaches a state it cannot make progress from (every live
 * processor blocked on a metalock — a simulated deadlock), it unwinds with
 * a SimError whose dump() JSON records each processor's clock, trace
 * position, pending access and lock state plus the full metalock table.
 * harness::guardedMain turns that into an error report on stderr and a
 * distinct exit code instead of a core dump.
 */

#ifndef DSS_SIM_ERROR_HH
#define DSS_SIM_ERROR_HH

#include <stdexcept>
#include <string>

#include "obs/json.hh"

namespace dss {
namespace sim {

class SimError : public std::runtime_error
{
  public:
    SimError(const std::string &what, obs::Json dump)
        : std::runtime_error(what), dump_(std::move(dump))
    {}

    /** Structured machine state at the point of failure. */
    const obs::Json &dump() const { return dump_; }

  private:
    obs::Json dump_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_ERROR_HH
