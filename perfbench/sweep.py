"""Baseline sweep: every preset once, outside the gated workloads.

    python3 perfbench/sweep.py

Runs each of the 14 presets unchanged in a fresh child process, once
untraced (wall_s, run_s, setup_s, peak_rss_mb, exit status) and once traced
(cli.write.s and the traced run_s).  The presets behind the gated
workloads get a second traced run, and their computed counts must repeat
exactly.  Writes perfbench/baseline_sweep.json with the machine and
software provenance.  Takes about eight minutes on two cores; nothing
here is gated.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time

from run import ROOT, SRC, THREAD_VARS, WORK, child_env, spawn

sys.path.insert(0, SRC)

from delaykpp.presets import preset, preset_names  # noqa: E402
from layertrace import COMPUTED_COUNTS, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_LIMIT_S = 900.0


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def provenance(env: dict) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in
                  _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if os.path.isfile(os.path.join(d, "size")):
            caches[f"L{_read(d + '/level')} {_read(d + '/type')}"] = \
                _read(d + "/size")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_revision": git, "src_modified": bool(dirty),
        "thread_env_children": {v: env[v] for v in THREAD_VARS},
        "thread_env_parent": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main() -> int:
    env = child_env()
    gated = {spec["preset"]: name for name, spec in WORKLOADS.items()}
    sweep_dir = os.path.join(WORK, f"sweep-{os.getpid()}")
    rows = {}
    try:
        for name in preset_names():
            d = os.path.join(sweep_dir, name)
            os.makedirs(d)
            cfg_path = os.path.join(d, "config.json")
            with open(cfg_path, "w") as f:
                json.dump(preset(name), f)
            plain = spawn(cfg_path, os.path.join(d, "plain"), env,
                          time.monotonic() + CHILD_LIMIT_S)
            row = {k: plain.get(k) for k in
                   ("status", "wall_s", "run_s", "setup_s", "peak_rss_mb")}
            counts = []
            for k in range(2 if name in gated else 1):
                spans = os.path.join(d, f"spans{k}.json")
                traced = spawn(cfg_path, os.path.join(d, f"traced{k}"), env,
                               time.monotonic() + CHILD_LIMIT_S, spans=spans)
                with open(spans) as f:
                    t = json.load(f)
                layers = per_layer(t["spans"], t["counts"])
                counts.append({c: layers[c] for c in COMPUTED_COUNTS})
                if k == 0:
                    row.update({"traced_run_s": traced["run_s"],
                                "cli.write.s": layers["cli.write.s"],
                                "cli.write.bytes": layers["cli.write.bytes"]})
            if name in gated:
                row["workload"] = gated[name]
                row["computed_counts"] = counts[0]
                row["computed_counts_repeat"] = counts[1] == counts[0]
            rows[name] = row
            print(f"{name:28s} status {row['status']}  wall "
                  f"{row['wall_s']:8.3f} s  run {row['run_s']:8.3f} s  rss "
                  f"{row['peak_rss_mb']:7.1f} MB  write "
                  f"{row['cli.write.s']:7.3f} s", flush=True)
            shutil.rmtree(d)
    finally:
        shutil.rmtree(sweep_dir, ignore_errors=True)
    out = {"provenance": provenance(env), "presets": rows}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "baseline_sweep.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
