"""Record the seed-0 reference values and their tolerances.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs each gated workload's seed-0 config through cli.run, then the same
config refined twice, as experiments.verdict_stability does: once with the
step halved and once with the grid changed by a factor of two.  The
tolerance of a checked value is TOL_FACTOR times the larger of its two
refinement moves, and never below REL_FLOOR of the value: a change of
scheme that stays within the discretisation error passes, a wrong answer
does not.  Values at the rounding level get the absolute floor their
workload names (WORKLOADS[...]["floors"]): the edge fraction's floor 1e-12
is four decades below the contact threshold EDGE_MAX, and the mirror gap's
1e-9 is in the position units of the front (grid cells of about 0.16).

Two workloads need a different refinement than the preset's n_h:
linear-xval's RK4 raises n_h from 64 to 4044 for stability, so the step is
halved by asking for twice the raised n_h; its grid is coarsened to n/2
with that n_h pinned, because doubling n would quadruple the stability
raise and need about 4 GB for the history ring.  The coarse move bounds
the spatial error of the finer grid from above.

Writes perfbench/references.json; run it at the commit whose behaviour the
benchmark should hold, and record that commit in the file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import delaykpp.cli as cli  # noqa: E402
from checks import csv_rows, flatten, is_finite_number  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

TOL_FACTOR = 2.0
REL_FLOOR = 1e-9
WORK = os.path.join(ROOT, ".perfbench_runs", "references")


def _run(cfg: dict, tag: str):
    out = os.path.join(WORK, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    status = cli.run(path, out, quiet=True)
    return status, out


def refinements(workload: str, base: dict, report: dict) -> dict:
    """The step-halved and grid-refined configs of one workload."""
    if workload == "linear-xval":
        n_h = int(report["n_h"])
        return {"step_halved": {**base, "n_h": 2 * n_h},
                "grid_coarsened": {**base, "n": int(base["n"]) // 2,
                                   "n_h": n_h}}
    return {"step_halved": {**base, "n_h": 2 * int(base.get("n_h", 64))},
            "grid_doubled": {**base, "n": 2 * int(base["n"])}}


def reference(workload: str) -> dict:
    spec = WORKLOADS[workload]
    base = make_config(workload, 0)
    status, out = _run(base, f"{workload}-base")
    with open(os.path.join(out, spec["report"])) as f:
        raw = json.load(f)
    report = flatten(raw)
    entry = {
        "preset": spec["preset"],
        "exit_status": status,
        "verdict": raw.get("verdict"),
        "csv_rows": {name: csv_rows(os.path.join(out, name))
                     for name in spec["csv"]},
        "finite": sorted(k for k, v in report.items()
                         if is_finite_number(v)),
        "exact": {k: report[k] for k in spec["exact"]},
        "refinements": {},
        "checked": {},
    }
    moves = {k: 0.0 for k in spec["checked"]}
    for tag, cfg in refinements(workload, base, raw).items():
        r_status, r_out = _run(cfg, f"{workload}-{tag}")
        with open(os.path.join(r_out, spec["report"])) as f:
            refined = flatten(json.load(f))
        changed = {k: cfg[k] for k in ("n", "n_h")
                   if cfg.get(k) != base.get(k)}
        entry["refinements"][tag] = {
            "changed": changed, "exit_status": r_status,
            "values": {k: refined[k] for k in spec["checked"]}}
        for k in spec["checked"]:
            moves[k] = max(moves[k], abs(refined[k] - report[k]))
    for k in spec["checked"]:
        value = report[k]
        tol = max(TOL_FACTOR * moves[k], REL_FLOOR * abs(value),
                  spec["floors"].get(k, 0.0))
        if not math.isfinite(tol):
            raise RuntimeError(f"{workload}: {k} has no finite tolerance")
        entry["checked"][k] = {"value": value, "tol": tol,
                               "max_move": moves[k]}
    shutil.rmtree(WORK, ignore_errors=True)
    return entry


def main() -> int:
    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip()
    refs = {"revision": revision,
            "rule": f"tol = max({TOL_FACTOR:g} * max refinement move, "
                    f"{REL_FLOOR:g} * |value|, the workload's floor for "
                    "rounding-level values)",
            "workloads": {}}
    for workload in WORKLOADS:
        refs["workloads"][workload] = reference(workload)
        print(workload, json.dumps(refs["workloads"][workload]["checked"]),
              flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
