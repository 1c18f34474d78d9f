#!/usr/bin/env python3
"""Append one host-time measurement to the trajectory in BENCH_perf.json.

Runs perfbench (`python3 perfbench/run.py`) in a source tree (the
repository itself by default, or any checkout or export of it) at the
benchmark's own run length (`run_seconds` in BENCHMARK.json) and appends

    {"commit" | "parent", "date", "note", "host", "correct", "metrics"
     [, "paired"]}

to the "entries" list of the trajectory file. "metrics" maps
"<workload>.<metric>" -> {"value", "unit"}.

Unpaired (the default), the tree runs `--workload all` once and
"metrics" is that run's metrics object unchanged.

Paired (--parent REV), the script exports REV with `git archive` to a
temporary directory and, for each workload, runs PAIRS (10) pairs of
`--workload <w>`, one run of the parent and one of the tree per pair,
the parent first in pairs 1, 3, 5, ... and the tree first in pairs 2,
4, 6, .... Each run builds its side's perfbench first (run.py does),
outside the time the binary measures. "metrics" then holds the tree's
median per metric, and "paired" records, per metric, both sides'
medians and quartiles, the tree/parent ratio of the medians and the
number of pairs the tree won (was strictly better in, by the metric's
direction in BENCHMARK.json).

A clean tree's entry names the commit it measured. A tree with
uncommitted changes measures a commit that does not exist yet, so its
entry names that commit's "parent" (the tree's HEAD) instead. Each run
first resolves such entries: once this repository's history holds a
child of the parent, the entry's "parent" becomes "commit", the child.

Usage:
    scripts/perf_trajectory.py [--tree DIR] [--commit REV] [--note TEXT]
                               [--out FILE] [--parent REV]

A tree without git metadata (a `git archive` export) needs --commit.
Exit codes: 0 appended, 1 perfbench failed or reported failed checks,
2 usage error.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # alternating parent/change pairs per workload, paired mode


def git(tree, *args):
    out = subprocess.run(["git", "-C", tree, *args], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def resolve(entries, repo):
    """Name the commit each uncommitted-change entry measured, once the
    history of `repo` holds it: the child of its parent toward HEAD."""
    for i, e in enumerate(entries):
        if "parent" not in e:
            continue
        path = git(repo, "rev-list", "--ancestry-path", "--reverse",
                   f"{e['parent']}..HEAD")
        if path:
            rest = {k: v for k, v in e.items() if k != "parent"}
            entries[i] = {"commit": path.split()[0], **rest}


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "machine": platform.machine()}


def perfbench(tree, workload, seconds):
    """One run.py run in `tree`: the JSON object of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_trajectory: perfbench failed (exit "
                 f"{out.returncode}) in {tree}")
    return json.loads(lines[-1])


def spread(values):
    """Median and quartiles [Q1, Q3] (inclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def paired(tree, parent_tree, bench):
    """Run PAIRS alternating pairs per workload; return (correct,
    change-side median metrics, per-metric paired summary)."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    correct = True
    runs = {}  # "<workload>.<metric>" -> {"parent": [...], "change": [...]}
    units = {}
    for w in (x["name"] for x in bench["workloads"]):
        for i in range(PAIRS):
            sides = (("parent", parent_tree), ("change", tree))
            for side, where in sides if i % 2 == 0 else sides[::-1]:
                result = perfbench(where, w, seconds)
                correct = correct and result["correct"]
                for name, m in result["metrics"].items():
                    key = f"{w}.{name}"
                    units[key] = m["unit"]
                    runs.setdefault(key, {"parent": [], "change": []})[
                        side].append(m["value"])
            print(f"perf_trajectory: {w} pair {i + 1}/{PAIRS} done",
                  file=sys.stderr)

    metrics, summary = {}, {}
    for key, v in runs.items():
        p, c = spread(v["parent"]), spread(v["change"])
        sign = -1 if better.get(key.split(".", 1)[1]) == "lower" else 1
        wins = sum(sign * (cv - pv) > 0
                   for pv, cv in zip(v["parent"], v["change"]))
        metrics[key] = {"value": c["median"], "unit": units[key]}
        summary[key] = {
            "unit": units[key],
            "parent": p,
            "change": c,
            "ratio": (c["median"] / p["median"] if p["median"] else None),
            "wins": wins,
        }
        print(f"  {key:32} {p['median']:>12.6g} -> {c['median']:>12.6g}"
              f"  wins {wins}/{PAIRS}", file=sys.stderr)
    return correct, metrics, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="source tree to measure (default: this repo)")
    ap.add_argument("--commit",
                    help="commit the tree holds (default: its git HEAD)")
    ap.add_argument("--note", default="", help="free text for the entry")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_perf.json"),
                    help="trajectory file to append to")
    ap.add_argument("--parent",
                    help="revision of this repo to pair the tree against")
    args = ap.parse_args(argv)

    tree = os.path.abspath(args.tree)
    commit = args.commit or git(tree, "rev-parse", "HEAD")
    if not commit:
        ap.error(f"{tree} is not a git checkout; pass --commit")
    dirty = not args.commit and bool(
        git(tree, "status", "--porcelain", "--untracked-files=no"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    entry = {
        "parent" if dirty else "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "note": args.note,
        "host": host(),
    }
    if args.parent is None:
        result = perfbench(tree, "all", bench["run_seconds"])
        entry["correct"] = result["correct"]
        entry["metrics"] = result["metrics"]
    else:
        against = git(ROOT, "rev-parse", "--verify",
                      args.parent + "^{commit}")
        if not against:
            ap.error(f"--parent {args.parent}: no such revision")
        parent_tree = tempfile.mkdtemp(prefix="perf_trajectory-")
        try:
            archive = subprocess.run(["git", "-C", ROOT, "archive", against],
                                     stdout=subprocess.PIPE, check=True)
            subprocess.run(["tar", "-x", "-C", parent_tree],
                           input=archive.stdout, check=True)
            correct, metrics, summary = paired(tree, parent_tree, bench)
        finally:
            shutil.rmtree(parent_tree, ignore_errors=True)
        entry["correct"] = correct
        entry["metrics"] = metrics
        entry["paired"] = {"against": against, "pairs": PAIRS,
                           "metrics": summary}

    trajectory = {"entries": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    resolve(trajectory["entries"], ROOT)
    trajectory["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"perf_trajectory: appended {commit[:12]}"
          f"{' plus uncommitted changes' if dirty else ''} to {args.out}",
          file=sys.stderr)
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
