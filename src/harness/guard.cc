#include "harness/guard.hh"

#include <iostream>

#include "db/common.hh"
#include "obs/json.hh"
#include "sim/error.hh"

namespace dss {
namespace harness {

namespace {

const char *
abortReasonName(db::QueryAbort::Reason r)
{
    switch (r) {
      case db::QueryAbort::Reason::WriteConflict:
        return "write_conflict";
      case db::QueryAbort::Reason::ReadWriteConflict:
        return "read_write_conflict";
    }
    return "?";
}

void
reportError(const std::string &bench, const char *kind, const char *what,
            const obs::Json *dump)
{
    obs::Json j = obs::Json::object();
    j["bench"] = bench;
    j["error"] = kind;
    j["what"] = what;
    if (dump)
        j["dump"] = *dump;
    j.dump(std::cerr, 2);
    std::cerr << '\n';
}

} // namespace

int
guardedMain(const std::string &bench_name, int argc, char **argv,
            const std::function<int(int, char **)> &body)
{
    try {
        return body(argc, argv);
    } catch (const sim::SimError &e) {
        reportError(bench_name, "sim_error", e.what(), &e.dump());
    } catch (const db::QueryAbort &e) {
        obs::Json dump = obs::Json::object();
        dump["reason"] = abortReasonName(e.reason);
        dump["xid"] = e.xid;
        dump["rel"] = e.rel;
        reportError(bench_name, "query_abort", e.what(), &dump);
    } catch (const std::exception &e) {
        reportError(bench_name, "exception", e.what(), nullptr);
    }
    return kErrorExitCode;
}

} // namespace harness
} // namespace dss
