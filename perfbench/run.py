"""Closed-loop preset benchmark of delaykpp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src; nothing needs installing).  One parent process runs the workload's
preset config (see workloads.py) as a closed loop: each run is a fresh
child process, the next one starts only after the previous one has exited,
and no run starts that would end past S seconds (at least one always
runs).  Children get their native thread pools capped at the number of
CPUs this process may use.  Before the loop, SETUP_PROBES children only
import and load the config, after one uncounted warm-up, so setup_s is a
median of several set-ups in every run.

Every run's outputs are checked (checks.py); fail_frac is failed runs over
attempted runs.  With --trace 0 the last stdout line carries the
end-to-end metrics:

    setup_s      child start until delaykpp, numpy, scipy and the config
                 are loaded (everything before cli.run)
    run_s        time inside cli.run: compute and output writing
    wall_s       spawn-to-exit time seen by the parent
    peak_rss_mb  the child's resident high-water mark (VmHWM)

setup_s and peak_rss_mb are medians over the runs (setup_s also over the
set-up probes).  run_s and wall_s are means over the runs, so a workload of
many short runs is timed over the whole invocation as one long run is: the
shared host this was written on changes its speed by up to 1.6x within
seconds, and over 40 s invocations of kpp-dirac the mean moved least
between invocations (see README.md).  The other lines of stdout give the
median, minimum and quartiles of every metric as well.

With --trace 1 the loop alternates untraced and traced runs
(layertrace.py), starting untraced; the last line carries the per-layer
metrics and the tracing overhead, the median traced minus the median
untraced run_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 3
HARD_LIMIT_S = 170.0  # every run of the benchmark must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))
# how each end-to-end metric's values over one invocation become its value
GATED = {"setup_s": statistics.median, "run_s": statistics.fmean,
         "wall_s": statistics.fmean, "peak_rss_mb": statistics.median}
TRACE_METRICS = (("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
                 ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
                 ("trace.spans", "count"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = os.path.join(os.path.realpath(SRC), "delaykpp")
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    return env


def spawn(cfg_path: str, out_dir: str, env: dict, deadline: float,
          setup_only: bool = False, spans: str | None = None) -> dict:
    """Run one child to completion; its timings, exit status and stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        spawned = time.monotonic()
        cmd = [sys.executable, CHILD, "--config", cfg_path, "--out", out_dir,
               "--spawned", repr(spawned)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
        killer.start()
        try:
            proc.wait()
            wall_s = time.monotonic() - spawned
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(os.path.join(out_dir, "stderr.txt"), errors="replace") as f:
        stderr = f.read()
    result = {"status": proc.returncode, "wall_s": wall_s, "stderr": stderr}
    timing = os.path.join(out_dir, "timing.json")
    if os.path.isfile(timing):
        with open(timing) as f:
            result.update(json.load(f))
    return result


def spread(values: list[float]) -> str:
    head = f"mean {statistics.fmean(values):.6g}, min {min(values):.6g}"
    if len(values) < 2:
        return f"{head}, n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{head}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from checks import check_run, load_references
    from workloads import make_config

    ref = load_references()[workload]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    env = child_env()
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        cfg_path = os.path.join(run_dir, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(make_config(workload, seed), f, indent=1)

        setups = []
        for i in range(1 + SETUP_PROBES):
            probe = spawn(cfg_path, os.path.join(run_dir, f"probe{i}"), env,
                          deadline, setup_only=True)
            if probe["status"] != 0 or "setup_s" not in probe:
                raise SystemExit("set-up probe failed:\n" + probe["stderr"])
            if i:  # the first probe warms caches and compiles bytecode
                setups.append(probe["setup_s"])

        runs, traced = [], []
        while True:
            k = len(runs) + len(traced)
            out_dir = os.path.join(run_dir, f"run{k}")
            spans = (os.path.join(run_dir, f"spans{k}.json")
                     if trace and k % 2 else None)
            r = spawn(cfg_path, out_dir, env, deadline, spans=spans)
            r["problems"], report = check_run(workload, seed, out_dir,
                                              r["status"], r["stderr"], ref)
            r["verdict"] = report.get("verdict")
            if spans and not r["problems"]:
                with open(spans) as f:
                    r["trace"] = json.load(f)
                os.unlink(spans)
            shutil.rmtree(out_dir)
            (traced if spans else runs).append(r)
            for p in r["problems"]:
                print(f"run {k} FAILED: {p}", file=sys.stderr)
            now = time.monotonic()
            walls = [x["wall_s"] for x in runs + traced]
            if trace and not traced:
                continue
            if now + statistics.median(walls) > start + seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    return {"setups": setups, "runs": runs, "traced": traced}


def summarize(workload: str, seed: int, data: dict, trace: bool) -> dict:
    from layertrace import COMPUTED_COUNTS, PER_LAYER, per_layer

    runs, traced = data["runs"], data["traced"]
    attempted = len(runs) + len(traced)
    failed = sum(1 for r in runs + traced if r["problems"])
    ok = [r for r in runs if not r["problems"]]
    if not ok:
        raise SystemExit(f"{workload}: every untraced run failed")
    series = {"setup_s": data["setups"] + [r["setup_s"] for r in ok]}
    for name in ("run_s", "wall_s", "peak_rss_mb"):
        series[name] = [r[name] for r in ok]
    verdicts = sorted({str(r["verdict"]) for r in runs + traced})
    print(f"workload {workload} seed {seed}: {attempted} runs, verdicts "
          f"{', '.join(verdicts)}, exit statuses "
          f"{sorted({r['status'] for r in runs + traced})}")
    for name, unit in END_TO_END:
        values = series[name]
        print(f"  {name}: median {statistics.median(values):.6g} {unit} "
              f"({spread(values)})")
    print(f"  fail_frac: {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} runs failed)")
    if not trace:
        metrics = {name: {"value": GATED[name](series[name]), "unit": unit}
                   for name, unit in END_TO_END}
    else:
        good = [r for r in traced if "trace" in r]
        if not good:
            raise SystemExit(f"{workload}: every traced run failed")
        layers = [per_layer(r["trace"]["spans"], r["trace"]["counts"])
                  for r in good]
        values = {name: statistics.median(m[name] for m in layers)
                  for name, _, _ in PER_LAYER}
        traced_run = statistics.median(r["run_s"] for r in good)
        untraced_run = statistics.median(series["run_s"])
        values.update({
            "trace.run_s": traced_run,
            "trace.untraced_run_s": untraced_run,
            "trace.overhead_s": traced_run - untraced_run,
            "trace.overhead_frac": (traced_run - untraced_run) / untraced_run,
            "trace.spans": len(good[0]["trace"]["spans"])})
        units = {name: unit for name, unit, _ in PER_LAYER}
        units.update(TRACE_METRICS)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        for name in units:
            print(f"  {name}: {values[name]:.6g} {units[name]}")
        if good[0]["trace"]["missing"]:
            print("  not traced, missing from the program: "
                  + ", ".join(good[0]["trace"]["missing"]))
        if len(layers) > 1:
            same = all(m[c] == layers[0][c] for m in layers for c in
                       COMPUTED_COUNTS)
            print(f"  computed counts identical across {len(layers)} "
                  f"traced runs: {same}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "delaykpp", "__init__.py")):
        print(f"no delaykpp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    data = run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    result = summarize(args.workload, args.seed, data, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
