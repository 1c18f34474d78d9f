#!/usr/bin/env python3
"""Append one host-time measurement to the trajectory in BENCH_perf.json.

Runs `python3 perfbench/run.py --workload all` in a source tree (the
repository itself by default, or any checkout or export of it) at the
benchmark's own run length, takes the JSON object run.py prints as its
last line, and appends

    {"commit" | "parent", "date", "note", "host", "correct", "metrics"}

to the "entries" list of the trajectory file. "metrics" is run.py's
metrics object unchanged: "<workload>.<metric>" -> {"value", "unit"}.

A clean tree's entry names the commit it measured. A tree with
uncommitted changes measures a commit that does not exist yet, so its
entry names that commit's "parent" (the tree's HEAD) instead. Each run
first resolves such entries: once this repository's history holds a
child of the parent, the entry's "parent" becomes "commit", the child.

Usage:
    scripts/perf_trajectory.py [--tree DIR] [--commit REV] [--note TEXT]
                               [--out FILE]

A tree without git metadata (a `git archive` export) needs --commit.
Exit codes: 0 appended, 1 perfbench failed or reported failed checks,
2 usage error.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="source tree to measure (default: this repo)")
    ap.add_argument("--commit",
                    help="commit the tree holds (default: its git HEAD)")
    ap.add_argument("--note", default="", help="free text for the entry")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_perf.json"),
                    help="trajectory file to append to")
    args = ap.parse_args(argv)

    tree = os.path.abspath(args.tree)
    commit = args.commit or git(tree, "rev-parse", "HEAD")
    if not commit:
        ap.error(f"{tree} is not a git checkout; pass --commit")
    dirty = not args.commit and bool(
        git(tree, "status", "--porcelain", "--untracked-files=no"))

    cmd = [sys.executable, "perfbench/run.py", "--workload", "all"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_trajectory: perfbench failed (exit "
                 f"{out.returncode}) in {tree}")
    result = json.loads(lines[-1])

    entry = {
        "parent" if dirty else "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "note": args.note,
        "host": host(),
        "correct": result["correct"],
        "metrics": result["metrics"],
    }
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
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
