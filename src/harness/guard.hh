/**
 * @file
 * Graceful-failure layer for the bench binaries.
 *
 * guardedMain wraps every bench main body: a sim::SimError (simulated
 * deadlock), a db::QueryAbort (a lock conflict no bench resolved) or
 * any other exception escaping the body is turned into a structured
 * error JSON on stderr and exit code kErrorExitCode (3) — never a core
 * dump. Exit codes: 0 success, 1 output-file failure, 2 bad flags
 * (BenchOptions::parse), 3 simulator/DB error.
 */

#ifndef DSS_HARNESS_GUARD_HH
#define DSS_HARNESS_GUARD_HH

#include <functional>
#include <string>

namespace dss {
namespace harness {

constexpr int kErrorExitCode = 3;

/**
 * Run @p body(argc, argv) under the common catch-and-report guard.
 * Returns the body's exit code, or kErrorExitCode after printing a
 * structured error JSON to stderr for sim::SimError (with its machine
 * dump), db::QueryAbort, or any std::exception.
 */
int guardedMain(const std::string &bench_name, int argc, char **argv,
                const std::function<int(int, char **)> &body);

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_GUARD_HH
