"""Run presets with two source trees and compare everything they write.

Usage: python3 tools/cmp_runs.py OLD_SRC NEW_SRC [NAME ...] [--out DIR]
           [--repeat N]

OLD_SRC and NEW_SRC are directories holding a ``delaykpp`` package (the
``src`` directory of two checkouts).  NAME is a preset name, ``verify``,
or the path of an existing ``.json`` config file, which runs that config
under the file's stem (``h0.json`` runs as ``h0``); the default is every
preset followed by ``verify``.  Each tree runs each name through
``cli.run`` in a child process of its own, name by name, writing to
DIR/old/NAME and DIR/new/NAME; DIR defaults to a fresh
temporary directory, which is removed afterwards.  With --repeat N
(default 1) the two trees run each name N times, alternating, the old
tree first in odd rounds; the first round's files are the compared ones,
and a later round writes to a directory removed after its run.  This is
a quick paired timing of a change.  Each name runs without
--quiet, and what it prints to stdout is saved beside its files as
NAME.stdout and compared with them.  The child also times its
``cli.run`` call (``time.perf_counter``) and reads its peak resident
memory (VmHWM, as ``perfbench/child.py`` does) when the call returns;
both are printed, never written beside the compared files.

For every name it prints both exit statuses, both ``cli.run`` times, both
peak RSS values (each a median over the rounds, followed with N > 1 by
how many rounds the new tree's ``cli.run`` was the faster) and, for every
file that is not byte-identical (``cmp``):

- JSON: each number that differs, with both values and the relative
  change |new - old| / |old|; other differing values and keys present on
  one side only are printed as they are;
- CSV: the row counts, and over the entries that differ the count, how
  many of them now read 0, the largest |old|, the largest |new|, the
  largest relative change (inf once an entry moves off 0) and the
  largest |new - old| over the largest |old| of its column in the whole
  old file (the scale a move off 0 is read against);
- any other file (NAME.stdout): the first line that differs, both sides.

The exit status is 0 when every status matches in every round and every
file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# runs in a child whose PYTHONPATH is one tree; argv: out dir, name, and
# the config file that name stands for, if any
_CHILD = """
import contextlib, json, os, sys, time
from delaykpp import cli, presets
out, name, *config = sys.argv[1:]
d = os.path.join(out, name)
os.makedirs(d)
if config:
    with open(config[0]) as f:
        cfg = json.load(f)
else:
    cfg = {"command": "verify"} if name == "verify" else presets.preset(name)
path = os.path.join(out, name + ".config.json")
with open(path, "w") as f:
    json.dump(cfg, f)
with open(os.path.join(d, name + ".stdout"), "w") as f, \\
        contextlib.redirect_stdout(f):
    start = time.perf_counter()
    status = cli.run(path, d)
    seconds = time.perf_counter() - start
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) / 1024.0 for line in f
                if line.startswith("VmHWM:"))
print(json.dumps({"status": status, "seconds": seconds, "peak_mb": peak}))
"""


def _label(name: str) -> str:
    """The name a NAME runs under: a config file's stem, else NAME."""
    if name.endswith(".json") and os.path.isfile(name):
        return os.path.splitext(os.path.basename(name))[0]
    return name


def _run_name(src: str, name: str, out: str) -> dict:
    """{"status": exit status, "seconds": cli.run time, "peak_mb": VmHWM
    in MB} of one NAME, run in a fresh child process."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    label = _label(name)
    config = [] if label == name else [os.path.abspath(name)]
    proc = subprocess.run([sys.executable, "-c", _CHILD, out, label,
                           *config], env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(srcs: dict, name: str, out: str, repeat: int) -> dict:
    """side -> the _run_name results of one NAME over repeat rounds, the
    old tree first in odd rounds; round 1 writes to out/old and out/new."""
    runs = {"old": [], "new": []}
    for r in range(1, repeat + 1):
        for side in ("old", "new") if r % 2 else ("new", "old"):
            if r == 1:
                runs[side].append(_run_name(srcs[side], name,
                                            os.path.join(out, side)))
                continue
            scratch = tempfile.mkdtemp(dir=out)
            try:
                runs[side].append(_run_name(srcs[side], name, scratch))
            finally:
                shutil.rmtree(scratch)
    return runs


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
    scale = {}  # column -> largest |old| of the file
    move = {}  # column -> largest |new - old| of its differing entries
    with open(old_path) as fo, open(new_path) as fn:
        for a, b in itertools.zip_longest(fo, fn):
            rows[0] += a is not None
            rows[1] += b is not None
            if a is None:
                continue
            ca = a.rstrip("\n").split(",")
            for j, x in enumerate(map(_cell, ca)):
                if isinstance(x, float):
                    scale[j] = max(scale.get(j, 0.0), abs(x))
            if b is None or a == b:
                continue
            cb = b.rstrip("\n").split(",")
            if len(ca) != len(cb):
                other += 1
                continue
            for j, (x, y) in enumerate(zip(ca, cb)):
                if x == y:
                    continue
                x, y = _cell(x), _cell(y)
                if isinstance(x, float) and isinstance(y, float):
                    count += 1
                    zeroed += y == 0.0
                    max_old = max(max_old, abs(x))
                    max_new = max(max_new, abs(y))
                    max_rel = max(max_rel, _rel(x, y))
                    move[j] = max(move.get(j, 0.0), abs(y - x))
                else:
                    other += 1
    max_move = max((math.inf if scale[j] == 0.0 else d / scale[j]
                    for j, d in move.items()), default=0.0)
    line = (f"rows {rows[0]} -> {rows[1]}; {count} entries differ "
            f"({zeroed} now 0), "
            f"max |old| {max_old:.3g}, max |new| {max_new:.3g}, "
            f"max rel. change {max_rel:.3g}, "
            f"max |new - old| / column max |old| {max_move:.3g}")
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
            with open(a) as fa, open(b) as fb:
                pairs = itertools.zip_longest(fa, fb, fillvalue="")
                k, (x, y) = next((k, p) for k, p in enumerate(pairs, 1)
                                 if p[0] != p[1])
            lines.append(f"  {f}: differs at line {k}: {x.rstrip()!r} -> "
                         f"{y.rstrip()!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--out", help="keep the outputs in this new "
                        "directory instead of a temporary one")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="alternate the two trees N times per name")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.names:
        names = args.names
    else:
        sys.path.insert(0, os.path.abspath(args.new_src))
        from delaykpp.presets import preset_names
        names = [*preset_names(), "verify"]

    out = args.out or tempfile.mkdtemp(prefix="cmp_runs_")
    srcs = {"old": args.old_src, "new": args.new_src}
    try:
        for side in srcs:
            os.makedirs(os.path.join(out, side))
        same = True
        for name in names:
            runs = _rounds(srcs, name, out, args.repeat)
            old, new = runs["old"], runs["new"]
            status = [r["status"] for r in old] == [r["status"] for r in new]
            lines = compare(os.path.join(out, "old", _label(name)),
                            os.path.join(out, "new", _label(name)))
            verdict = "identical" if not lines else "differs"
            if not status:
                verdict = "EXIT STATUS DIFFERS"
            t_old, t_new, p_old, p_new = (
                statistics.median(r[key] for r in side)
                for key in ("seconds", "peak_mb") for side in (old, new))
            won = sum(b["seconds"] < a["seconds"] for a, b in zip(old, new))
            rounds = (f"; medians of {args.repeat} rounds, new faster in "
                      f"{won}" if args.repeat > 1 else "")
            print(f"{_label(name)}: exit {old[0]['status']} -> "
                  f"{new[0]['status']}, {verdict}; cli.run {t_old:.2f} s -> "
                  f"{t_new:.2f} s, peak {p_old:.1f} MB -> {p_new:.1f} MB"
                  f"{rounds}")
            for line in lines:
                print(line)
            same = same and not lines and status
    finally:
        if args.out is None:
            shutil.rmtree(out, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
