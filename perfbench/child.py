"""One workload run in a fresh process, as the benchmark parent starts it.

    python3 perfbench/child.py --config CFG --out DIR --spawned T
        [--setup-only] [--spans FILE]

T is the parent's time.monotonic() just before the spawn, so setup_s
counts interpreter start, the imports of numpy, scipy and delaykpp and the
config load: everything before the first call into cli.run.  run_s is the
time inside cli.run and peak_rss_mb the process's resident high-water mark
(VmHWM) when it returns.  The rusage maximum a parent gets from wait4 would
not do: Linux carries the parent's own high-water mark over the fork and
exec into it.  All three go to DIR/timing.json; the exit status is
cli.run's.  With --spans the run is traced and its spans and computed
counts are written to FILE after cli.run has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import delaykpp.cli as cli  # imports numpy and scipy.ndimage

    expected = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(expected + os.sep):
        print(f"delaykpp imported from {cli.__file__}, not from {expected}",
              file=sys.stderr)
        return 1
    with open(args.config) as f:
        json.load(f)
    setup_s = time.monotonic() - args.spawned

    timing = {"setup_s": setup_s}
    status = 0
    if not args.setup_only:
        tracer = None
        if args.spans:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            status = cli.run(args.config, args.out, quiet=True)
        finally:
            run_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        timing.update(run_s=run_s, peak_rss_mb=peak_rss_mb(), status=status)
        if tracer is not None:
            with open(args.spans, "w") as f:
                json.dump({"spans": tracer.spans, "counts": tracer.counts,
                           "missing": tracer.missing}, f)
    with open(os.path.join(args.out, "timing.json"), "w") as f:
        json.dump(timing, f)
    return status


if __name__ == "__main__":
    sys.exit(main())
