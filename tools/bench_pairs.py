"""Alternating parent/change runs of the preset benchmark, as one JSON file.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N
           [--workloads W ...] [--first-seed S] [--seconds T] --out FILE

PARENT_DIR and CHANGE_DIR are source checkouts (each with ``src`` and
``perfbench``).  Pair k (k = 0 .. N-1) runs every workload once on each
side with seed S + k through ``perfbench/run.py --trace 0``, the parent
first when k is even and the change first when k is odd.  Then one
``--trace 1`` run per workload and side (seed S) records the per-layer
metrics.  FILE gets the machine, the software versions, the git commit
and src tree of each checkout when it has them, every pair's end-to-end metrics, and per
workload and metric each side's median and quartiles, the change's wins
(a win is a pair where the change is better; ties count for neither), the
change's median relative to the parent's, each side's failed runs and
a verdict, which it also prints as a table:

- ``unresolved``: the parent's interquartile range exceeds the metric's
  bound in CHANGE_DIR/BENCHMARK.json, relative to its median, and some
  change run does not beat every parent run; the spread hides a move of
  the bound's size;
- ``gain``: the change wins at least 9 of 10 pairs, its median beats the
  parent's by more than the parent's interquartile range and by more than
  GAIN_FLOOR (1%) of the parent's median, and it has no more failed runs
  than the parent; the floor keeps a move too small to matter (a
  0.02% RSS move past a tiny spread) from reading as a gain;
- ``within bound``: change / parent medians <= 1 + the bound;
- ``worse``: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

END_TO_END = ("setup_s", "run_s", "wall_s", "peak_rss_mb")  # lower is better
GAIN_FLOOR = 0.01  # a gain beats the parent's median by more than this share
WORKLOADS = ("linear-xval", "kpp-extinction", "kpp-dirac")


def _bench(root: str, workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _revision(root: str) -> dict:
    """The checkout's commit and the git tree of its src directory."""
    proc = subprocess.run(["git", "rev-parse", "HEAD", "HEAD:src"], cwd=root,
                          text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    commit, src_tree = (proc.stdout.split() + [None, None])[:2]
    return {"commit": commit, "src_tree": src_tree}


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _bounds(root: str) -> dict[str, float]:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def verdict(entry: dict, bound: float) -> str:
    """The module docstring's verdict for one summary entry."""
    parent = entry["parent"]["median"]
    if entry["parent_iqr"] > bound * parent and not entry["separated"]:
        return "unresolved"
    gap = parent - entry["change"]["median"]
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] \
            and gap > max(entry["parent_iqr"], GAIN_FLOOR * parent) \
            and entry["failed"]["change"] <= entry["failed"]["parent"]:
        return "gain"
    if entry["change_over_parent"] <= 1.0 + bound:
        return "within bound"
    return "worse"


def summarize(pairs: list[dict], workloads, bounds: dict[str, float]
              ) -> dict:
    out = {}
    for w in workloads:
        out[w] = {}
        failed = {side: sum(p[w][side]["failed"] for p in pairs)
                  for side in ("parent", "change")}
        for m in END_TO_END:
            old = [p[w]["parent"]["metrics"][m] for p in pairs]
            new = [p[w]["change"]["metrics"][m] for p in pairs]
            po, pn = _quartiles(old), _quartiles(new)
            entry = {
                "parent": po, "change": pn,
                "change_wins": sum(b < a for a, b in zip(old, new)),
                "parent_wins": sum(a < b for a, b in zip(old, new)),
                "pairs": len(old),
                "parent_iqr": po["q3"] - po["q1"],
                "separated": max(new) < min(old),
                "failed": failed,
                "change_over_parent": pn["median"] / po["median"]}
            entry["verdict"] = verdict(entry, bounds[m])
            out[w][m] = entry
    return out


def table(summary: dict) -> str:
    """One line per workload and metric: medians, wins, ratio, verdict."""
    lines = [f"{'workload':<16} {'metric':<12} {'parent':>10} "
             f"{'IQR':>8} {'change':>10} {'wins':>6} {'ratio':>6}  verdict"]
    for w, metrics in summary.items():
        for m, e in metrics.items():
            lines.append(
                f"{w:<16} {m:<12} {e['parent']['median']:>10.4g} "
                f"{e['parent_iqr']:>8.3g} {e['change']['median']:>10.4g} "
                f"{e['change_wins']:>3}/{e['pairs']:<2} "
                f"{e['change_over_parent']:>6.3f}  {e['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    bounds = _bounds(sides["change"])

    def write(pairs, traced):
        result = {
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": _machine(),
            "revisions": {side: _revision(root)
                          for side, root in sides.items()},
            "command": f"perfbench/run.py --seconds {args.seconds:g}, "
                       f"seeds {args.first_seed}.."
                       f"{args.first_seed + len(pairs) - 1}",
            "summary": summarize(pairs, args.workloads, bounds),
            "pairs": pairs,
            "traced": traced,
        }
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")

    pairs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for w in args.workloads:
            pair[w] = {"first": order[0]}
            for side in order:
                pair[w][side] = _bench(sides[side], w, args.first_seed + k,
                                       args.seconds, 0)
                print(f"pair {k} {w} {side}: "
                      f"{pair[w][side]['metrics']}", flush=True)
        pairs.append(pair)
        write(pairs, {})  # a partial file survives an interrupted run

    traced = {}
    for w in args.workloads:
        traced[w] = {side: _bench(root, w, args.first_seed, args.seconds, 1)
                     for side, root in sides.items()}
    write(pairs, traced)
    print(table(summarize(pairs, args.workloads, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
