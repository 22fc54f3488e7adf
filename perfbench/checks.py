"""Output checks behind fail_frac.

A run fails when it exits 1 or with a traceback, exits with anything but
0 or 2, misses an expected output file, reports a non-finite float where
the seed-0 reference was finite, writes a CSV with another row count than
the reference, or (seed 0 only) moves a checked report value out of its
tolerance around the reference.  On every seed the bump-independent values
(speeds, kernel shift) must match the reference to EXACT_RTOL and the
solution must not touch the periodic edge.
"""

from __future__ import annotations

import json
import math
import os

from workloads import EDGE_MAX, EXACT_RTOL, WORKLOADS

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)["workloads"]


def flatten(obj, prefix: str = "") -> dict:
    """Dotted path -> leaf of a JSON report (lists indexed by position)."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = ((str(i), v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def is_finite_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def csv_rows(path: str) -> int:
    """Data rows of a CSV file (lines after the header)."""
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(
            lambda: f.read(1 << 20), b"")) - 1


def check_run(workload: str, seed: int, out_dir: str, status: int | None,
              stderr: str, ref: dict) -> tuple[list[str], dict]:
    """(failure reasons, flattened report) of one finished run."""
    spec = WORKLOADS[workload]
    problems = []
    if status not in (0, 2):
        problems.append(f"exit status {status}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    report_path = os.path.join(out_dir, spec["report"])
    if not os.path.isfile(report_path):
        return problems + [f"missing {spec['report']}"], {}
    with open(report_path) as f:
        report = flatten(json.load(f))

    for path in ref["finite"]:
        if not is_finite_number(report.get(path)):
            problems.append(f"{path} is {report.get(path)!r}, reference "
                            "was finite")
    for name, rows in ref["csv_rows"].items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"missing {name}")
        elif (got := csv_rows(path)) != rows:
            problems.append(f"{name} has {got} rows, reference {rows}")
    for key, want in ref["exact"].items():
        got = report.get(key)
        if not (is_finite_number(got)
                and abs(got - want) <= EXACT_RTOL * abs(want)):
            problems.append(f"{key} = {got!r}, expected {want!r} to "
                            f"{EXACT_RTOL:g} relative")
    edge = report.get(spec["edge"])
    if not (is_finite_number(edge) and edge <= EDGE_MAX):
        problems.append(f"{spec['edge']} = {edge!r} exceeds {EDGE_MAX:g}")
    if seed == 0:
        for key, entry in ref["checked"].items():
            got = report.get(key)
            if not (is_finite_number(got)
                    and abs(got - entry["value"]) <= entry["tol"]):
                problems.append(f"{key} = {got!r} outside {entry['value']!r}"
                                f" +- {entry['tol']!r}")
    return problems, report
