"""Run presets with two source trees and compare everything they write.

Usage: python3 tools/cmp_runs.py OLD_SRC NEW_SRC [NAME ...] [--out DIR]

OLD_SRC and NEW_SRC are directories holding a ``delaykpp`` package (the
``src`` directory of two checkouts).  NAME is a preset name or ``verify``;
the default is every preset followed by ``verify``.  Each tree runs the
names one after another through ``cli.run`` in its own child process
(old tree first), writing to DIR/old/NAME and DIR/new/NAME; DIR defaults
to a fresh temporary directory, which is removed afterwards.

For every name it prints both exit statuses and, for every file that is
not byte-identical (``cmp``):

- JSON: each number that differs, with both values and the relative
  change |new - old| / |old|; other differing values and keys present on
  one side only are printed as they are;
- CSV: the row counts, and over the entries that differ the count, how
  many of them now read 0, the largest |old|, the largest |new| and the
  largest relative change.

The exit status is 0 when every status matches and every file is
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

# runs in a child whose PYTHONPATH is one tree; argv: out dir, names
_CHILD = """
import json, os, sys
from delaykpp import cli, presets
out, names = sys.argv[1], sys.argv[2:]
status = {}
for name in names:
    d = os.path.join(out, name)
    os.makedirs(d)
    cfg = {"command": "verify"} if name == "verify" else presets.preset(name)
    path = os.path.join(out, name + ".config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    status[name] = cli.run(path, d, quiet=True)
print(json.dumps(status))
"""


def _run_tree(src: str, names: list[str], out: str) -> dict[str, int]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _CHILD, out, *names],
                          env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def _json_diffs(old, new, path: str = ""):
    """(path, old, new, relative change or None) of every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new or key not in old:
                yield sub, old.get(key), new.get(key), None
            else:
                yield from _json_diffs(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and \
            len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_diffs(a, b, f"{path}[{i}]")
    elif _number(old) and _number(new):
        if old != new:
            yield path, old, new, _rel(float(old), float(new))
    elif old != new:
        yield path, old, new, None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_diff(old_path: str, new_path: str) -> str:
    """One line: row counts and the extent of the differing entries."""
    count, zeroed, max_old, max_new, max_rel = 0, 0, 0.0, 0.0, 0.0
    rows = [0, 0]
    other = 0  # differing non-numeric cells, or rows of unequal width
    with open(old_path) as fo, open(new_path) as fn:
        for a, b in zip(fo, fn):
            rows[0] += 1
            rows[1] += 1
            if a == b:
                continue
            ca, cb = a.rstrip("\n").split(","), b.rstrip("\n").split(",")
            if len(ca) != len(cb):
                other += 1
                continue
            for x, y in zip(ca, cb):
                if x == y:
                    continue
                x, y = _cell(x), _cell(y)
                if isinstance(x, float) and isinstance(y, float):
                    count += 1
                    zeroed += y == 0.0
                    max_old = max(max_old, abs(x))
                    max_new = max(max_new, abs(y))
                    max_rel = max(max_rel, _rel(x, y))
                else:
                    other += 1
        rows[0] += sum(1 for _ in fo)
        rows[1] += sum(1 for _ in fn)
    line = (f"rows {rows[0]} -> {rows[1]}; {count} entries differ "
            f"({zeroed} now 0), "
            f"max |old| {max_old:.3g}, max |new| {max_new:.3g}, "
            f"max rel. change {max_rel:.3g}")
    return line + (f"; {other} other cells or rows differ" if other else "")


def compare(old_dir: str, new_dir: str) -> list[str]:
    """Report lines for the files of one name; empty when all identical."""
    lines = []
    old_files, new_files = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    for f in sorted(old_files ^ new_files):
        side = "old" if f in old_files else "new"
        lines.append(f"  {f}: only in {side}")
    for f in sorted(old_files & new_files):
        a, b = os.path.join(old_dir, f), os.path.join(new_dir, f)
        if filecmp.cmp(a, b, shallow=False):
            continue
        if f.endswith(".json"):
            with open(a) as fa, open(b) as fb:
                diffs = list(_json_diffs(json.load(fa), json.load(fb)))
            lines.append(f"  {f}: {len(diffs)} values differ")
            for path, x, y, rel in diffs:
                rel_text = "" if rel is None else f"  rel {rel:.3g}"
                lines.append(f"    {path}: {x!r} -> {y!r}{rel_text}")
        elif f.endswith(".csv"):
            lines.append(f"  {f}: {_csv_diff(a, b)}")
        else:
            lines.append(f"  {f}: differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--out", help="keep the outputs in this new "
                        "directory instead of a temporary one")
    args = parser.parse_args(argv)
    if args.names:
        names = args.names
    else:
        sys.path.insert(0, os.path.abspath(args.new_src))
        from delaykpp.presets import preset_names
        names = [*preset_names(), "verify"]

    out = args.out or tempfile.mkdtemp(prefix="cmp_runs_")
    try:
        status = {}
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            os.makedirs(os.path.join(out, side))
            status[side] = _run_tree(src, names, os.path.join(out, side))
        same = True
        for name in names:
            s_old, s_new = status["old"][name], status["new"][name]
            lines = compare(os.path.join(out, "old", name),
                            os.path.join(out, "new", name))
            verdict = "identical" if not lines else "differs"
            if s_old != s_new:
                verdict = "EXIT STATUS DIFFERS"
            print(f"{name}: exit {s_old} -> {s_new}, {verdict}")
            for line in lines:
                print(line)
            same = same and not lines and s_old == s_new
    finally:
        if args.out is None:
            shutil.rmtree(out, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
