#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

    python3 perfbench/run.py --workload paper_sweep|query_stream|model_check|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, runs one workload per process, checks every
simulated result, prints a metric table and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones. README.md defines every
metric and the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("paper_sweep", "query_stream", "model_check")
DEFAULT_SEED = 1
# model_check's searches take no seeded input, so its recorded results
# hold at every seed.
SEEDLESS = ("model_check",)
PRESETS = ("paper1997", "modern")

# Every workload reports every metric; a per-layer metric whose layer the
# workload does not exercise reads 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "entries_per_s": "1/s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# Per-layer metric -> (unit, end-to-end metric it should move, workload).
LAYERS = {
    "tpcd.dbgen_s": ("s", "setup_s", "paper_sweep"),
    "db.capture_s": ("s", "setup_s; wall_s", "paper_sweep; query_stream"),
    "db.captured_entries": ("count", "setup_s", "paper_sweep"),
    "db.trace_mb": ("MB", "peak_rss_mb", "paper_sweep"),
    "sim.replay_s": ("s", "wall_s, entries_per_s", "paper_sweep"),
    "sim.replay_entries_per_s": ("1/s", "entries_per_s", "paper_sweep"),
    "sim.machine_build_us.p50": ("us", "wall_s", "paper_sweep"),
    "sim.machine_build_us.p99": ("us", "wall_s", "paper_sweep"),
    "sim.machine_build_us.n": ("count", "-", "paper_sweep"),
    **{f"sim.model_reset_us.{p}.{stat}": (unit, move, "model_check")
       for p in PRESETS
       for stat, unit, move in (("p50", "us", "items_per_s"),
                                ("p99", "us", "items_per_s"),
                                ("n", "count", "-"))},
    "sim.cycles": ("count", "none; feeds ok_share", "paper_sweep"),
    "sim.l2_misses": ("count", "none; feeds ok_share", "paper_sweep"),
    "sched.run_s": ("s", "wall_s, items_per_s", "query_stream"),
    "sched.hash_s": ("s", "items_per_s", "query_stream"),
    "sched.cache_hit_ratio": ("share", "items_per_s", "query_stream"),
    "sched.cache_hits": ("count", "items_per_s", "query_stream"),
    "sched.cache_fetches": ("count", "-", "query_stream"),
    "sched.replayed_entries": ("count", "items_per_s", "query_stream"),
    "sched.sim_p50_cycles": ("cycles", "none; feeds ok_share",
                             "query_stream"),
    "sched.sim_p99_cycles": ("cycles", "none; feeds ok_share",
                             "query_stream"),
    "verify.run_s": ("s", "wall_s, items_per_s", "model_check"),
    **{f"verify.apply_us.{p}.{stat}": (unit, move, "model_check")
       for p in PRESETS
       for stat, unit, move in (("p50", "us", "wall_s, items_per_s"),
                                ("p99", "us", "wall_s, items_per_s"),
                                ("n", "count", "-"))},
    "verify.states": ("count", "none; feeds ok_share", "model_check"),
    "verify.transitions": ("count", "none; feeds ok_share", "model_check"),
    "obs.report_s": ("s", "wall_s", "all"),
    "trace.wall_s": ("s", "-", "all"),
    "trace.setup_s": ("s", "-", "all"),
    "trace.overhead_s": ("s", "-", "all"),
}


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at src/; "
                 "run from the repository root")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        # A run measures at least `seconds`, then finishes its iteration
        # and, traced, its probes.
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             timeout=3 * seconds + 90)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))
    if out.returncode != 0:
        sys.exit(f"perfbench: exit {out.returncode}: " + " ".join(cmd))
    return json.loads(out.stdout)


# ---------------------------------------------------------------- checks

def replay_errors(v):
    """Identities of one toJson(SimStats) that hold at every seed."""
    errs = []
    procs = v["procs"]
    for name, p in [(f"proc{i}", p) for i, p in enumerate(procs)] + [
            ("aggregate", v["aggregate"])]:
        if p["busy"] + p["memStall"] + p["syncStall"] != p["totalCycles"]:
            errs.append(f"{name}: Busy + Mem + MSync != time")
        if sum(p["memStallByGroup"].values()) != p["memStall"]:
            errs.append(f"{name}: stall by group != Mem")
        for level in ("l1Misses", "l2Misses"):
            t = p[level]
            rows = t["byClass"].values()
            if sum(r["total"] for r in rows) != t["total"]:
                errs.append(f"{name}.{level}: class misses != total")
            if any(sum(x for k, x in r.items() if k != "total") != r["total"]
                   for r in rows):
                errs.append(f"{name}.{level}: miss types != class total")
            if sum(t["byGroup"].values()) != t["total"]:
                errs.append(f"{name}.{level}: group misses != total")
    agg = v["aggregate"]
    for field in ("busy", "memStall", "syncStall", "reads", "writes"):
        if sum(p[field] for p in procs) != agg[field]:
            errs.append(f"aggregate.{field} != sum over processors")
    if v["executionTime"] != max(p["totalCycles"] for p in procs):
        errs.append("execution time != slowest processor's time")
    return errs


def stream_errors(v, cached_hashes):
    """Identities of one stream report that hold at every seed;
    `cached_hashes` gives per record the content hash of the trace its
    cache held for the record's key."""
    errs = []
    recs = v["records"]
    n = v["config"]["instances"]
    if sorted(r["id"] for r in recs) != list(range(n)):
        errs.append("instances do not each resolve exactly once")
    for r in recs:
        if r["latency"] != r["wait"] + r["service"]:
            errs.append(f"instance {r['id']}: latency != wait + service")
        if r["wait"] != r["start"] - r["arrival"] or \
                r["complete"] != r["start"] + r["service"]:
            errs.append(f"instance {r['id']}: inconsistent timestamps")
    c = v["cache"]
    if c["hits"] + c["misses"] != n:
        errs.append("cache hits + misses != instances")
    if len(cached_hashes) != len(recs):
        errs.append("one cached-trace hash per record expected")
    for r, h in zip(recs, cached_hashes):
        if h == 0 or r["trace_hash"] != h:
            errs.append(f"instance {r['id']}: trace_hash != its cached "
                        "trace's hash")
    return errs


def search_errors(v):
    errs = []
    if not v["exhausted"]:
        errs.append("search not exhaustive")
    if v["violations"] != 0:
        errs.append(f"{v['violations']} invariant violations")
    return errs


def replay_digest(v):
    """Per-replay cycles, Busy/Mem/MSync and per-level misses by class."""
    return {
        "cycles": v["executionTime"],
        "procs": [[p["busy"], p["memStall"], p["syncStall"]]
                  for p in v["procs"]],
        "misses": [{lvl: {c: {k: n for k, n in row.items() if k != "total"}
                          for c, row in p[lvl]["byClass"].items()}
                    for lvl in ("l1Misses", "l2Misses")}
                   for p in v["procs"]],
    }


def stream_digest(v):
    """Per-instance stream records, in completion order."""
    keys = ("id", "query", "param_seed", "proc", "arrival", "start",
            "complete", "service", "wait", "latency", "trace_hash")
    return {"cache": [v["cache"]["hits"], v["cache"]["misses"]],
            "records": [[r[k] for k in keys] for r in v["records"]]}


def search_digest(v):
    return {"states": v["states"], "transitions": v["transitions"],
            "depth": v["depth"]}


# Result kind -> (its identity errors, its digest).
CHECKS = {
    "replay": (lambda r: replay_errors(r["value"]), replay_digest),
    "stream": (lambda r: stream_errors(r["value"], r["cached_hashes"]),
               stream_digest),
    "search": (lambda r: search_errors(r["value"]), search_digest),
}


def check(doc, reference):
    """(attempted, failed): one checked operation per result. Every result
    must repeat the first iteration's for its key exactly and, at the
    reference's seed (at any seed for a seedless workload), match the
    recorded one."""
    ref = None
    if reference is not None and (doc["seed"] == reference["seed"] or
                                  doc["workload"] in SEEDLESS):
        ref = reference["workloads"].get(doc["workload"], {})
    first = {}
    failed = 0
    for r in doc["results"]:
        errors_of, digest_of = CHECKS[r["kind"]]
        errs = errors_of(r)
        digest = digest_of(r["value"])
        if first.setdefault(r["key"], digest) != digest:
            errs.append("differs from the first iteration's result")
        if ref is not None and digest != ref.get(r["key"]):
            errs.append("differs from the recorded reference")
        if errs:
            failed += 1
            print(f"perfbench: FAILED {doc['workload']} {r['key']}: "
                  + "; ".join(errs[:3]), file=sys.stderr)
    return len(doc["results"]), failed


def write_reference(reference, path):
    """One line per recorded result, so a re-recording diffs by result."""
    blocks = [f" {json.dumps(w)}: {{\n" + ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        + "\n }" for w, entries in reference["workloads"].items()]
    with open(path, "w") as f:
        f.write(f'{{"seed": {reference["seed"]}, "workloads": {{\n'
                + ",\n".join(blocks) + "\n}}\n")


# --------------------------------------------------------------- metrics

# Other tenants of the host slow whole iterations, model_check's by up to
# 1.8x, in bursts of seconds. Each time is therefore the fastest over the
# run's iterations, the one least disturbed: across runs it spreads less
# than the median on every workload, and by half on model_check
# (README.md, Spread).

def setup_fastest(doc, traced):
    """Fastest set-up over one side's iterations."""
    return min(it["setup_s"] for it in doc["iterations"]
               if it["traced"] == traced)


def unit_fastest(doc, traced):
    """Fastest time of each unit of work over one side's iterations."""
    per = {}
    for it in doc["iterations"]:
        if it["traced"] == traced:
            for k, v in it["units"].items():
                per[k] = min(v, per.get(k, v))
    return per


def span_seconds(doc, name):
    """Time in spans called `name`: per unit, the least over iterations
    (or set-ups) of the time each spent there, summed over units."""
    per = {}
    for s in doc["spans"]:
        if s["name"] == name:
            by_iter = per.setdefault(s["unit"], {})
            by_iter[s["iter"]] = by_iter.get(s["iter"], 0) + s["t1"] - s["t0"]
    return sum(min(v.values()) for v in per.values())


def timing(samples, stem, out):
    """Median and 99th percentile of a re-timed call, with sample count."""
    v = samples.get(stem, [])
    out[stem + ".n"] = len(v)
    out[stem + ".p50"] = statistics.median(v) if v else 0
    out[stem + ".p99"] = (statistics.quantiles(v, n=100, method="inclusive")
                          [98] if len(v) > 1 else 0)


def end_to_end(doc, attempted, failed):
    wall = sum(unit_fastest(doc, False).values())
    counts = doc["counts"]
    return {
        "wall_s": wall,
        "setup_s": setup_fastest(doc, False),
        "entries_per_s": counts["entries"] / wall,
        "items_per_s": counts["items"] / wall,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(doc):
    out = {name: 0 for name in LAYERS}
    counts = doc["counts"]
    for name in ("tpcd.dbgen", "db.capture", "sim.replay", "sched.run",
                 "sched.hash", "verify.run", "obs.report"):
        out[name + "_s"] = span_seconds(doc, name)
    for key in ("db.captured_entries", "sched.replayed_entries"):
        out[key] = counts.get(key, 0)
    out["db.trace_mb"] = counts.get("db.trace_bytes", 0) / 2**20
    if out["sim.replay_s"]:
        out["sim.replay_entries_per_s"] = counts["entries"] / out[
            "sim.replay_s"]
    timing(doc["samples"], "sim.machine_build_us", out)
    for p in PRESETS:
        timing(doc["samples"], f"sim.model_reset_us.{p}", out)
        timing(doc["samples"], f"verify.apply_us.{p}", out)

    # Exact simulated counts, from the first iteration's results (check()
    # fails every later result that differs from them).
    first = {}
    for r in doc["results"]:
        first.setdefault(r["key"], r)
    latencies = []
    for r in first.values():
        v = r["value"]
        if r["kind"] == "replay":
            out["sim.cycles"] += v["executionTime"]
            out["sim.l2_misses"] += v["aggregate"]["l2Misses"]["total"]
        elif r["kind"] == "stream":
            out["sched.cache_hits"] += v["cache"]["hits"]
            out["sched.cache_fetches"] += (v["cache"]["hits"] +
                                           v["cache"]["misses"])
            latencies += [rec["latency"] for rec in v["records"]]
        elif r["kind"] == "search":
            out["verify.states"] += v["states"]
            out["verify.transitions"] += v["transitions"]
    if latencies:
        out["sched.cache_hit_ratio"] = (out["sched.cache_hits"] /
                                        out["sched.cache_fetches"])
        # R-7 percentiles over every instance, as sched::summarize takes
        # them per stream.
        out["sched.sim_p50_cycles"] = statistics.median(latencies)
        out["sched.sim_p99_cycles"] = statistics.quantiles(
            latencies, n=100, method="inclusive")[98]

    traced = sum(unit_fastest(doc, True).values())
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - sum(unit_fastest(doc, False).values())
    out["trace.setup_s"] = setup_fastest(doc, True)
    return out


# ------------------------------------------------------------------ main

def run(workload, seed, seconds, trace, reference):
    doc = run_binary(workload, seed, seconds, trace)
    attempted, failed = check(doc, reference)
    if trace:
        values = per_layer(doc)
        units = {k: LAYERS[k][0] for k in values}
        spans_file = os.path.join(BUILD, f"spans-{workload}.json")
        with open(spans_file, "w") as f:
            json.dump(doc["spans"], f)
    else:
        values = end_to_end(doc, attempted, failed)
        units = END_TO_END
    print(f"== {workload} (seed {seed}): {attempted - failed}/{attempted} "
          "checked operations passed")
    for name, v in values.items():
        move, where = LAYERS[name][1:] if trace else ("-", "")
        note = f"  -> {move} on {where}" if move != "-" else ""
        print(f"  {name:34} {v:>16.6g} {units[name]:6}{note}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's results as the reference")
    args = ap.parse_args(argv)

    build()
    reference = None
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.write_reference:
        if reference is None or reference["seed"] != args.seed:
            reference = {"seed": args.seed, "workloads": {}}
        for w in workloads:
            doc = run_binary(w, args.seed, args.seconds, 0)
            reference["workloads"][w] = {
                r["key"]: CHECKS[r["kind"]][1](r["value"])
                for r in doc["results"]}
        write_reference(reference, REFERENCE)
        print(f"wrote {REFERENCE}", file=sys.stderr)
        return 0

    attempted = failed = 0
    metrics = {}
    for w in workloads:
        a, f, m = run(w, args.seed, args.seconds, args.trace, reference)
        attempted += a
        failed += f
        prefix = w + "." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
