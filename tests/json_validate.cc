/**
 * @file
 * Validate files produced by the bench --json / --trace flags.
 *
 * Usage: json_validate [--trace] <file>...
 *
 * Each file must parse with the obs JSON reader. Report files (default)
 * must carry a non-empty "runs" array of uniquely labelled entries whose
 * stats hold a breakdown summing to ~100%, or, from the model checker, a
 * "verify" array whose clean searches are exhausted and violation-free.
 * Trace files (--trace) must be Chrome trace-event documents: a
 * "traceEvents" array of "X"/"M" events with ts/dur.
 * Exit status 0 when every file is valid; 1 otherwise. Used by the CTest
 * smoke tests that run a real bench binary end to end.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.hh"

using dss::obs::Json;

namespace {

bool
fail(const std::string &path, const std::string &why)
{
    std::cerr << "json_validate: " << path << ": " << why << '\n';
    return false;
}

bool
validateReport(const std::string &path, const Json &doc)
{
    if (!doc.isObject())
        return fail(path, "report is not a JSON object");
    for (const char *key : {"bench", "scale", "config", "runs"})
        if (!doc.find(key))
            return fail(path, std::string("missing \"") + key + "\"");
    const Json *runs = doc.find("runs");
    // Model-check reports (bench/verify_protocol) run no workload:
    // "runs" is legitimately empty and the payload is the "verify"
    // array of search results instead.
    const Json *verify = doc.find("verify");
    if (verify) {
        if (!verify->isArray() || verify->size() == 0)
            return fail(path, "\"verify\" is not a non-empty array");
        for (std::size_t i = 0; i < verify->size(); ++i) {
            const Json &res = verify->at(i);
            for (const char *key : {"states", "transitions", "depth",
                                    "violations", "exhausted", "mutant"})
                if (!res.find(key))
                    return fail(path, std::string("verify entry lacks \"") +
                                          key + "\"");
            if (res.find("states")->asInt() == 0)
                return fail(path, "verify entry explored zero states");
            // A clean search must exhaust the state space and find
            // nothing; mutant entries are expected to be caught.
            if (res.find("mutant")->asString() == "none" &&
                (!res.find("exhausted")->asBool() ||
                 res.find("violations")->asUint() != 0))
                return fail(path, "clean search did not exhaust the state "
                                  "space without violations");
        }
        // The registry's verify.* counters describe the last search.
        const Json &last = verify->at(verify->size() - 1);
        const Json *counters = doc.find("counters");
        const Json *states =
            counters ? counters->find("verify.states") : nullptr;
        if (!states || states->asUint() != last.find("states")->asUint())
            return fail(path, "verify.states counter disagrees with the "
                              "last search");
        if (runs->isArray() && runs->size() == 0)
            return true;
    }
    if (!runs->isArray() || runs->size() == 0)
        return fail(path, "\"runs\" is not a non-empty array");
    std::set<std::string> labels;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const Json &run = runs->at(i);
        if (!run.find("label") || !run.find("stats"))
            return fail(path, "run entry lacks label/stats");
        // A repeated label means one run was recorded twice.
        const std::string label = run.find("label")->asString();
        if (!labels.insert(label).second)
            return fail(path, "run label \"" + label + "\" repeats");
        const Json *bd = run.find("stats")->find("breakdown");
        if (!bd)
            return fail(path, "run stats lack a breakdown");
        const double sum = bd->find("busyPct")->asDouble() +
                           bd->find("memPct")->asDouble() +
                           bd->find("msyncPct")->asDouble();
        if (std::fabs(sum - 100.0) > 0.01)
            return fail(path, "breakdown sums to " + std::to_string(sum));
    }
    return true;
}

bool
validateTrace(const std::string &path, const Json &doc)
{
    if (!doc.isObject())
        return fail(path, "trace is not a JSON object");
    const Json *events = doc.find("traceEvents");
    if (!events || !events->isArray() || events->size() == 0)
        return fail(path, "missing or empty \"traceEvents\"");
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        const Json *ph = e.find("ph");
        if (!ph)
            return fail(path, "event without \"ph\"");
        if (ph->asString() == "M")
            continue;
        if (ph->asString() != "X")
            return fail(path, "unexpected phase " + ph->asString());
        if (!e.find("ts") || !e.find("dur") || !e.find("pid") ||
            !e.find("tid") || !e.find("name"))
            return fail(path, "X event lacks ts/dur/pid/tid/name");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool trace_mode = false;
    bool all_ok = true;
    int files = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace") {
            trace_mode = true;
            continue;
        }
        ++files;
        std::ifstream is(arg);
        if (!is) {
            all_ok = fail(arg, "cannot open");
            continue;
        }
        std::ostringstream buf;
        buf << is.rdbuf();
        Json doc;
        try {
            doc = Json::parse(buf.str());
        } catch (const std::exception &e) {
            all_ok = fail(arg, std::string("parse error: ") + e.what());
            continue;
        }
        const bool ok = trace_mode ? validateTrace(arg, doc)
                                   : validateReport(arg, doc);
        if (ok)
            std::cout << "json_validate: " << arg << ": OK\n";
        else
            all_ok = false;
    }
    if (files == 0) {
        std::cerr << "usage: json_validate [--trace] <file>...\n";
        return 2;
    }
    return all_ok ? 0 : 1;
}
