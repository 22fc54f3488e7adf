"""Span tracing of delaykpp's layers, installed from outside the package.

``Tracer.install()`` replaces, for the life of one traced run, the names
one delaykpp module looks up in another (``cli.solve_kpp``,
``experiments.solve_kpp``, ``nonlinear.convolve1d``, ``nonlinear.discretize``,
``linear_solver._rk4_delay_diag``, ...), the ``HistoryRing`` methods and the
birth functions with wrappers.  Each wrapper records a span (name, parent
span, start, end) in memory; ``uninstall()`` puts every original object
back.  Counts computed from array sizes (multiply-adds, bytes moved, ring
bytes, mode steps) are taken at the same boundaries.  Nothing is written
while the run is timed: the caller saves ``spans``/``counts`` afterwards and
``per_layer`` turns them into the per-layer metrics.

A span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import os
import time
from array import array

from delaykpp import birth, cli, experiments, grids, linear_solver, nonlinear

LAYERS = ("cli", "experiments", "characteristic", "kernels", "grids",
          "linear_solver", "nonlinear", "birth")

_RING_METHODS = ("fill", "push", "delayed_nodes", "delayed_mid")
_BIRTHS = (birth.Nicholson, birth.MackeyGlass, birth.LinearCap,
           birth.LinearBirth)


class _Proxy:
    """Stand-in for a module: the given attributes, the rest delegated."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Wraps the layer boundaries of delaykpp and records spans."""

    def __init__(self):
        # one entry per span, in opening order; flat arrays, because
        # millions of small lists would slow the cyclic garbage collector
        # down in proportion to the spans already kept
        self._names: list[str] = []
        self._parents = array("q")  # index of the enclosing span or -1
        self._starts = array("d")
        self._ends = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original)
        self.missing: list[str] = []  # wrap targets the program lacks
        # the ETD stencils are kept alive so their ids stay unique
        self._etd_stencils: list = []
        self._etd_ids: set[int] = set()

    @property
    def spans(self) -> list[tuple]:
        """(name, parent index or -1, start, end) of every span."""
        return list(zip(self._names, self._parents, self._starts,
                        self._ends))

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _span(self, name, fn, after=None):
        """Wrap fn in a span; name is a string or a function of the call's
        positional arguments.  after(args, result) runs once the span is
        closed, so its bookkeeping is not timed."""
        names, parents, starts, ends = (self._names, self._parents,
                                        self._starts, self._ends)
        stack, clock = self._stack, time.perf_counter
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(fixed or name(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks computing counts from array sizes ---------------------------

    def _conv_kind(self, args) -> str:
        kind = "etd" if id(args[1]) in self._etd_ids else "kernel"
        return f"nonlinear.conv_{kind}"

    def _after_conv(self, args, result) -> None:
        n, taps = args[0].size, args[1].size
        key = self._conv_kind(args)
        self._add(f"{key}.calls", 1)
        self._max(f"{key}.taps", taps)
        self._add(f"{key}.mac", n * taps)
        self._add(f"{key}.bytes", 8 * (2 * n + taps))

    def _after_etd_stencils(self, args, result) -> None:
        self._etd_stencils.extend(result)
        self._etd_ids.update(id(s) for s in result)

    def _after_ring_init(self, args, result) -> None:
        ring = args[0]
        self._max("grids.ring.bytes", ring.vals.nbytes + ring.ders.nbytes)

    def _after_rk4(self, args, result) -> None:
        mu, ring, n_steps = args[0], args[2], args[3]
        self._add("linear_solver.mode_steps", n_steps * mu.size)
        self._max("linear_solver.n_h_used", ring.n_h)

    def _after_solve_linear(self, args, result) -> None:
        n_h = args[5] if len(args) > 5 else None
        self._max("linear_solver.n_h_requested", 64 if n_h is None else n_h)

    def _after_write(self, args, result) -> None:
        self._add("cli.write.bytes", os.path.getsize(args[0]))

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); a name the program no
        longer has is listed in missing instead, so its time shows up as
        the caller's self time."""
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def targets(self) -> list[tuple]:
        """(owner, attribute, span name, after-hook) of every wrapped name."""
        solve_kpp = "nonlinear.solve_kpp"
        solve_linear = "linear_solver.solve_linear"
        speeds = "characteristic.critical_speeds"
        out = [
            (cli, "run", "cli.run", None),
            (cli, "_write_csv", "cli.write", self._after_write),
            (cli, "_write_json", "cli.write", self._after_write),
            (cli, "solve_kpp", solve_kpp, None),
            (cli, "solve_linear", solve_linear, self._after_solve_linear),
            (cli, "trace_levels", "nonlinear.trace_levels", None),
            (cli, "critical_speeds", speeds, None),
            (cli, "tangency_solve", "characteristic.tangency_solve", None),
            (cli, "gamma_zero", "characteristic.gamma_zero", None),
            (experiments, "solve_kpp", solve_kpp, None),
            (experiments, "solve_linear", solve_linear,
             self._after_solve_linear),
            (experiments, "trace_levels", "nonlinear.trace_levels", None),
            (experiments, "critical_speeds", speeds, None),
            (experiments, "tangency_solve", "characteristic.tangency_solve",
             None),
            (experiments, "tune_kernel_shift",
             "experiments.tune_kernel_shift", None),
            (linear_solver, "_rk4_delay_diag", "linear_solver.rk4",
             self._after_rk4),
            (linear_solver, "_history_samples", "linear_solver.history",
             None),
            (nonlinear, "convolve1d", self._conv_kind, self._after_conv),
            (nonlinear, "_etd_stencils", "nonlinear.stencils",
             self._after_etd_stencils),
            (nonlinear, "_kernel_applier", "nonlinear.stencils", None),
            (nonlinear, "discretize", "kernels.discretize", None),
            (nonlinear, "_clamped_birth", "nonlinear.birth", None),
            (nonlinear, "_history_samples", "linear_solver.history", None),
            (grids.HistoryRing, "__init__", "grids.ring.init",
             self._after_ring_init),
        ]
        for name in ("mckean_experiment", "extinction_experiment",
                     "spreading_experiment", "bridge_check"):
            out.append((cli, name, f"experiments.{name}", None))
        for method in _RING_METHODS:
            out.append((grids.HistoryRing, method, f"grids.ring.{method}",
                        None))
        for cls in _BIRTHS:
            out.append((cls, "__call__", "birth.g", None))
        return out

    def _linear_numpy(self, np):
        fft = _Proxy(np.fft, fft=self._span("linear_solver.fft", np.fft.fft),
                     ifft=self._span("linear_solver.ifft", np.fft.ifft))
        return _Proxy(np, fft=fft)

    def _nonlinear_numpy(self, np):
        return _Proxy(np, roll=self._span("nonlinear.kernel_roll", np.roll))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, after in self.targets():
                self._replace(owner, attr,
                              lambda f, n=name, a=after: self._span(n, f, a))
            # numpy as seen from the solver modules: the transforms of the
            # linear solver and the index roll that applies a Dirac kernel
            self._replace(linear_solver, "np", self._linear_numpy)
            self._replace(nonlinear, "np", self._nonlinear_numpy)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _span_table(spans):
    """Per span name: calls, inclusive seconds, self seconds; plus the
    number of spans of each name per parent name."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, list] = {}
    under: dict[tuple, int] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
        key = (spans[parent][0] if parent >= 0 else None, name)
        under[key] = under.get(key, 0) + 1
    return table, under


# (metric name, unit, how it is computed); "incl"/"self"/"calls" read the
# span table, "count" the counts computed from array sizes, "under" the
# number of spans of a name opened directly inside a span of another name
PER_LAYER: list[tuple] = [
    ("linear_solver.rk4.s", "s", ("self", "linear_solver.rk4")),
    ("linear_solver.steps", "count",
     ("under", "linear_solver.rk4", "grids.ring.push")),
    ("linear_solver.n_h_used", "count", ("count", "linear_solver.n_h_used")),
    ("linear_solver.n_h_requested", "count",
     ("count", "linear_solver.n_h_requested")),
    ("linear_solver.mode_steps", "count",
     ("count", "linear_solver.mode_steps")),
    ("linear_solver.history.s", "s",
     ("incl", "linear_solver.history", "linear_solver.fft",
      "grids.ring.fill")),
    ("linear_solver.ifft.s", "s", ("incl", "linear_solver.ifft")),
    ("linear_solver.solve_linear.s", "s",
     ("incl", "linear_solver.solve_linear")),
    ("grids.ring.bytes", "bytes", ("count", "grids.ring.bytes")),
    ("grids.ring.delayed_mid.s", "s", ("incl", "grids.ring.delayed_mid")),
    ("grids.ring.delayed_nodes.s", "s",
     ("incl", "grids.ring.delayed_nodes")),
    ("grids.ring.push.s", "s", ("incl", "grids.ring.push")),
    ("grids.ring.push.calls", "count", ("calls", "grids.ring.push")),
    ("cli.write.s", "s", ("incl", "cli.write")),
    ("cli.write.bytes", "bytes", ("count", "cli.write.bytes")),
    ("nonlinear.conv_kernel.s", "s", ("incl", "nonlinear.conv_kernel")),
    ("nonlinear.conv_kernel.calls", "count",
     ("calls", "nonlinear.conv_kernel")),
    ("nonlinear.conv_kernel.taps", "count",
     ("count", "nonlinear.conv_kernel.taps")),
    ("nonlinear.conv_kernel.mac", "count",
     ("count", "nonlinear.conv_kernel.mac")),
    ("nonlinear.conv_kernel.bytes", "bytes",
     ("count", "nonlinear.conv_kernel.bytes")),
    ("nonlinear.conv_etd.s", "s", ("incl", "nonlinear.conv_etd")),
    ("nonlinear.conv_etd.calls", "count", ("calls", "nonlinear.conv_etd")),
    ("nonlinear.conv_etd.taps", "count",
     ("count", "nonlinear.conv_etd.taps")),
    ("nonlinear.conv_etd.mac", "count", ("count", "nonlinear.conv_etd.mac")),
    ("nonlinear.conv_etd.bytes", "bytes",
     ("count", "nonlinear.conv_etd.bytes")),
    ("nonlinear.kernel_roll.s", "s", ("incl", "nonlinear.kernel_roll")),
    ("nonlinear.stencils.s", "s", ("incl", "nonlinear.stencils")),
    ("kernels.discretize.s", "s", ("incl", "kernels.discretize")),
    ("nonlinear.solve_kpp.s", "s", ("incl", "nonlinear.solve_kpp")),
    ("nonlinear.solve_kpp.self_s", "s", ("self", "nonlinear.solve_kpp")),
    ("nonlinear.steps", "count",
     ("under", "nonlinear.solve_kpp", "grids.ring.push")),
    ("nonlinear.birth.s", "s", ("incl", "nonlinear.birth")),
    ("nonlinear.trace_levels.s", "s", ("incl", "nonlinear.trace_levels")),
    ("experiments.tune_kernel_shift.s", "s",
     ("incl", "experiments.tune_kernel_shift")),
    ("experiments.tune_kernel_shift.speed_solves", "count",
     ("under", "experiments.tune_kernel_shift",
      "characteristic.critical_speeds")),
    ("characteristic.critical_speeds.s", "s",
     ("incl", "characteristic.critical_speeds")),
    ("characteristic.critical_speeds.calls", "count",
     ("calls", "characteristic.critical_speeds")),
    ("experiments.self_s", "s", ("layer", "experiments")),
] + [(f"layer.{layer}.self_s", "s", ("layer", layer)) for layer in LAYERS
     if layer != "experiments"]

# the counts a later change may rest a count-based claim on
COMPUTED_COUNTS = ("nonlinear.conv_kernel.mac", "nonlinear.conv_kernel.bytes",
                   "nonlinear.conv_etd.mac", "nonlinear.conv_etd.bytes",
                   "linear_solver.mode_steps", "grids.ring.bytes")


def per_layer(spans, counts) -> dict[str, float]:
    """Every PER_LAYER metric of one traced run."""
    table, under = _span_table(spans)
    layer_self: dict[str, float] = {}
    for name, (_, _, self_s) in table.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    out = {}
    for metric, _, (kind, *names) in PER_LAYER:
        if kind == "incl":
            value = sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)
        elif kind == "self":
            value = table.get(names[0], (0, 0.0, 0.0))[2]
        elif kind == "calls":
            value = table.get(names[0], (0, 0.0, 0.0))[0]
        elif kind == "under":
            value = under.get(tuple(names), 0)
        elif kind == "layer":
            value = layer_self.get(names[0], 0.0)
        else:
            value = counts.get(names[0], 0)
        out[metric] = float(value) if isinstance(value, float) else int(value)
    return out

