"""Periodic grid, the delay-line history ring with the history samples
that fill it, and the one output path of every run.

_history_samples turns a run's initial data into the values and time
derivatives on the ring's nodes; both solvers call it, and at h = 0,
where there is no delay window, it returns the one initial profile.

Each snapshot that a run keeps, from either solver at any delay, goes
through Outputs.store: the schedule picks the steps, the byte budget is
checked before the run starts, a non-finite snapshot stops the run, and
the snapshot is stored or handed to the run's collect, which reduces it
or writes it out.  The largest edge fraction is kept, and
Outputs.trajectory then raises the one edge warning and returns the
run's Trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["Grid", "HistoryRing", "Outputs", "Trajectory", "every_kth",
           "edge_fraction", "step_count", "MAX_STEPS", "MAX_BYTES",
           "DEFAULT_N_H"]

# over 100x the 102,400 steps of the longest preset (desk-tangency-linear);
# a longer run is a mistyped horizon, not a study
MAX_STEPS = 1 << 24
# per history ring or snapshot array: over 30x the largest preset's array
# (the 35 MB ring of xval-smooth's 268 coupled modes of the half spectrum);
# filling a larger one can exhaust the machine
MAX_BYTES = 1 << 30
_EDGE_WARN = 1e-8  # edge/peak ratio above which a run warns
DEFAULT_N_H = 64  # steps per delay of a delayed run that names none


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-length/2, length/2).

    n must be a power of two (>= 256) so transforms stay fast.  xi holds
    the frequencies 2*pi*k/length, k = 0 .. n/2, of the half spectrum
    that rfft gives a real field: the modes the linear solver steps.  The
    other half are their conjugates, which a real field determines.
    """

    length: float
    n: int

    def __post_init__(self):
        if self.length <= 0.0:
            raise ConfigError(f"grid length must be positive, got {self.length}")
        if self.n < 256 or self.n & (self.n - 1):
            raise ConfigError(f"field 'n' must be a power of two >= 256, "
                              f"got {self.n:g}")
        if not self.dx >= np.finfo(float).tiny:  # _etd_stencils divides by it
            raise ConfigError(f"fields 'L' = {self.length:g} and 'n' = "
                              f"{self.n:g}: the cell L/n = {self.dx:.3g} is "
                              "not a positive normal double")
        # the shortest run (T = 0) budgets two snapshot rows (Outputs);
        # refused here, before x or any field of the grid's size exists
        _check_bytes(16 * self.n, f"field 'n' = {self.n:g}: the snapshot "
                     "array of the shortest run")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def xi(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)


class HistoryRing:
    """Ring of the last n_h+1 snapshots, with their time derivatives when
    derivatives is true.

    dt = h/n_h exactly, so the delayed time t-h always lands on the oldest
    stored node; the one-in step t-h+dt is the next node and the midpoint
    t-h+dt/2 comes from cubic Hermite interpolation on that cell.

    Derivative rows are optional.  The linear solver's exponential
    Hermite step reads each cell's two derivatives and keeps them; the
    KPP step reads u(t - h) only through g, at the nodes, so solve_kpp
    builds its ring without them.  ders is then a zero-width
    (n_h + 1, 0) array: fill, push, delayed_nodes, delayed_rows and
    store_rows handle it as they handle a full one (only delayed_mid
    needs the derivatives), no derivative row is allocated or written,
    and MAX_BYTES counts only the arrays allocated.
    """

    def __init__(self, h: float, n_h: int, width: int, dtype=complex,
                 derivatives: bool = True):
        if n_h < 1:
            raise ConfigError(f"n_h must be >= 1, got {n_h}")
        der_width = width if derivatives else 0
        _check_bytes((n_h + 1) * (width + der_width)
                     * np.dtype(dtype).itemsize,
                     f"a history ring of n_h + 1 = {n_h + 1} rows of "
                     f"{width} grid points or coupled modes (fields 'n_h' "
                     "and 'n')")
        self.h = float(h)
        self.n_h = int(n_h)
        self.dt = self.h / self.n_h
        self.vals = np.zeros((n_h + 1, width), dtype)
        self.ders = np.zeros((n_h + 1, der_width), dtype)
        self._step = 0  # global index of the newest stored snapshot

    def fill(self, vals: np.ndarray, ders) -> None:
        """Load the initial history; row j is time -h + j*dt.  Each array
        must broadcast to the shape of its own part of the ring: one
        (1, width) row is a constant history, and a scalar 0 fills the
        derivatives of either kind of ring."""
        for arr, part in ((vals, self.vals), (ders, self.ders)):
            try:
                np.broadcast_to(arr, part.shape)
            except ValueError:
                raise ConfigError(
                    f"history shape {np.shape(arr)} does not broadcast to "
                    f"ring {part.shape}") from None
        self.vals[:] = vals
        self.ders[:] = ders
        self._step = 0

    def _slot(self, step: int) -> int:
        # global step s lives in row (s + n_h) mod (n_h + 1); fill() loads
        # row j at time -h + j dt, i.e. step j - n_h, so step 0 -> row n_h
        return (step + self.n_h) % (self.n_h + 1)

    @property
    def newest(self) -> np.ndarray:
        return self.vals[self._slot(self._step)]

    def delayed_nodes(self):
        """(value, derivative) pairs at t-h and t-h+dt for the step
        starting at the newest stored time t; the arrays are the ring's
        own rows, not copies."""
        s0 = self._slot(self._step - self.n_h)
        s1 = self._slot(self._step - self.n_h + 1)
        return (self.vals[s0], self.ders[s0]), (self.vals[s1], self.ders[s1])

    def delayed_mid(self) -> np.ndarray:
        """Cubic Hermite value at t-h+dt/2."""
        (v0, d0), (v1, d1) = self.delayed_nodes()
        return 0.5 * (v0 + v1) + 0.125 * self.dt * (d0 - d1)

    def push(self, val: np.ndarray, der: np.ndarray) -> None:
        self._step += 1
        s = self._slot(self._step)
        self.vals[s] = val
        self.ders[s] = der

    @property
    def room(self) -> int:
        """Rows store_rows can give before the ring wraps to row 0."""
        return self.n_h + 1 - self._slot(self._step + 1)

    def delayed_rows(self, count: int):
        """(values, derivatives) at the count + 1 nodes t-h, t-h+dt, ...,
        t-h+count dt read by the next count <= n_h steps from the newest
        stored time t, all of them stored already; the ring's own rows
        where they do not wrap, a copy where they do."""
        first = self._slot(self._step - self.n_h)
        rows = slice(first, first + count + 1) if first + count <= self.n_h \
            else np.arange(first, first + count + 1) % (self.n_h + 1)
        return self.vals[rows], self.ders[rows]

    def store_rows(self, count: int):
        """Advance count <= min(n_h, room) steps and return (values,
        derivatives), the ring's rows of the count new times, oldest
        first, for the caller to fill.  They are the rows of the count
        oldest nodes, so read those (delayed_rows) first."""
        first = self._slot(self._step + 1)
        self._step += count
        return self.vals[first:first + count], self.ders[first:first + count]


def _history_samples(u0, n_h: int, h: float, width: int, dtype):
    """Sample history and its time derivative on the ring nodes
    -h + j h/n_h, j = 0 .. n_h.

    u0 may be a constant profile (an array of shape (width,) or a scalar)
    or, for h > 0, a callable s -> profile on [-h, 0]; at h = 0 there is
    no delay window for a callable to describe.  A constant profile gives
    one (1, width) row of values and one of zero derivatives, which
    HistoryRing.fill broadcasts to every node; at h = 0 that row is the
    initial profile.
    """
    if not callable(u0):
        prof = np.asarray(u0, dtype)
        if prof.ndim == 0:
            prof = np.full(width, prof[()])
        if prof.shape != (width,):
            raise ConfigError(f"history profile must have shape ({width},), "
                              f"got {prof.shape}")
        # a copy, not u0 itself: solve_kpp floors the history in place
        vals = np.array(prof, ndmin=2)
        return vals, np.zeros_like(vals)
    if h == 0.0:
        raise ConfigError("h=0 takes a single initial profile")
    shape = (n_h + 1, width)
    dt = h / n_h
    vals = np.empty(shape, dtype)
    ders = np.empty(shape, dtype)
    eps = 1e-3 * dt  # every difference stays inside [-h, 0]

    def f(s):
        return np.asarray(u0(s), dtype)

    for j in range(n_h + 1):
        s = -h + j * dt
        vals[j] = f(s)
        if 0 < j < n_h:
            ders[j] = (f(s + eps) - f(s - eps)) / ((s + eps) - (s - eps))
        else:  # second-order one-sided difference at the two ends
            e = eps if j == 0 else -eps
            ders[j] = (4.0 * f(s + e) - f(s + 2.0 * e) - 3.0 * vals[j]) \
                / (2.0 * e)
    return vals, ders


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_BYTES:
        raise ConfigError(f"{what} needs {nbytes / 2**30:.3g} GiB, above "
                          f"the budget of {MAX_BYTES / 2**30:g} GiB")


def every_kth(count: int, k: int) -> list[int]:
    """Indices 0, k, 2k, ... below count, plus the last index count - 1."""
    idx = list(range(0, count, k))
    if idx[-1] != count - 1:
        idx.append(count - 1)
    return idx


def step_count(T: float, dt: float, delay: str | None = None) -> int:
    """Steps of size dt that cover [0, T]; ConfigError for a negative or
    non-finite horizon, one past MAX_STEPS, or a positive one that would
    take no step (T/dt below 1e-12: a delay so long that the run would
    keep t = 0 only while its report says T).  The refusal names T and,
    when given, delay: the fields that set dt = h/n_h, as text.  A dt
    that is not a positive normal double is refused by those fields."""
    if not dt >= np.finfo(float).tiny:
        fields = f"field 'T' = {T:g}: its step dt" if delay is None else \
            f"fields {delay}: the step dt = h/n_h"
        raise ConfigError(f"{fields} = {dt:.3g} is not a positive normal "
                          "double")
    steps = T / dt
    count = int(np.ceil(steps - 1e-12)) if 0.0 <= steps <= MAX_STEPS else -1
    if count < 0 or (count == 0 and T > 0.0):
        fields = f"field 'T' = {T:g} needs" if delay is None else \
            f"fields 'T' = {T:g}, {delay} need"
        step = "dt" if delay is None else "dt = h/n_h"
        raise ConfigError(
            f"{fields} {steps:.3g} steps of {step} = {dt:.3g}; a run takes "
            f"0 steps at T = 0, else 1 to {MAX_STEPS}")
    return count


def edge_fraction(field) -> float:
    """max |u| over the two cells next to the periodic seam, over max |u|."""
    peak = np.max(np.abs(field))
    if peak == 0.0:
        return 0.0
    edge = max(np.max(np.abs(field[:2])), np.max(np.abs(field[-2:])))
    return float(edge / peak)


@dataclass(frozen=True)
class Trajectory:
    """The snapshots of one run, as Outputs.trajectory returns them.

    A run that hands its snapshots to collect keeps none: times and
    fields are then empty, and the edge fraction and clamp count still
    cover every kept snapshot."""

    grid: Grid
    times: np.ndarray  # (n_out,); empty when the run collected
    fields: np.ndarray  # (n_out, N) real; empty when the run collected
    n_h: int  # steps per delay taken; 0 for the exact h = 0 linear solve
    edge_fraction: float  # max over kept snapshots of edge |u| / max |u|
    clamp_count: int = 0  # KPP: delayed entries clamped to 0 before g


class Outputs:
    """Output schedule of a run of T/dt steps and the gate every kept
    snapshot passes.

    Steps 0, out_every, 2 out_every, ... and the last step are kept; the
    default out_every keeps about 400.  rows maps a kept step to its row
    of the schedule.  store(step, field) ignores a step that is not kept;
    otherwise it refuses a non-finite snapshot with the last healthy
    time, then writes it to its row of the preallocated fields array or,
    given collect, calls collect(t, field) and stores nothing (times and
    fields are then empty); either way it keeps the largest edge
    fraction.  The step count is step_count's (a refusal names delay
    too when given, the fields that set dt).  Stored snapshots must fit
    MAX_BYTES, and so must collected ones when budget is true: always in
    solve_linear, and in solve_kpp for a collect that writes every kept
    snapshot out, as the CLI's snapshot CSVs do.  Either way the budget
    is checked here, before the run's first step.
    """

    def __init__(self, T: float, dt: float, out_every: int | None,
                 width: int, collect=None, delay: str | None = None,
                 budget: bool = False):
        self.n_steps = step_count(T, dt, delay)
        if out_every is None:
            out_every = max(1, self.n_steps // 400)
        if collect is None or budget:
            _check_bytes(8 * width * (self.n_steps // out_every + 2),
                         f"snapshots every {out_every} of {self.n_steps} "
                         f"steps (fields 'n', 'out_every' and 'T')")
        steps = every_kth(self.n_steps + 1, out_every)
        self.rows = {n: i for i, n in enumerate(steps)}
        self._times, self._collect = np.array(steps, float) * dt, collect
        kept = len(steps) if collect is None else 0
        self.times, self.fields = self._times[:kept], np.empty((kept, width))
        self._edge, self._healthy = 0.0, 0.0

    def store(self, step: int, field) -> None:
        row = self.rows.get(step)
        if row is None:
            return
        t = self._times[row]
        if not np.all(np.isfinite(field)):
            raise RuntimeError(
                f"solution lost finiteness near t={t:.6g}; "
                f"last healthy output at t={self._healthy:.6g}")
        if self._collect is None:
            self.fields[row] = field
        else:
            self._collect(float(t), field)
        self._edge = max(self._edge, edge_fraction(field))
        self._healthy = t

    def trajectory(self, grid: Grid, n_h: int,
                   clamp_count: int = 0) -> Trajectory:
        """The run's Trajectory; warns once if a kept snapshot reached
        the periodic edge."""
        if self._edge > _EDGE_WARN:
            warnings.warn(f"solution reached the periodic edge "
                          f"(edge/peak = {self._edge:.2e})", RuntimeWarning)
        return Trajectory(grid, self.times, self.fields, n_h, self._edge,
                          clamp_count)
