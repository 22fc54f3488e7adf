"""Periodic grid, field snapshots, the delay-line history ring, and the
output schedule every stepping loop writes its snapshots through."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["Grid", "Field", "HistoryRing", "Outputs", "every_kth",
           "edge_fraction", "warn_edge", "step_count", "MAX_STEPS",
           "MAX_BYTES"]

# over 100x the 102,400 steps of the longest preset (desk-tangency-linear);
# a longer run is a mistyped horizon, not a study
MAX_STEPS = 1 << 24
# per history ring or snapshot array: 4x the largest preset's ring (the
# 265 MB of xval-smooth); filling a larger one can exhaust the machine
MAX_BYTES = 1 << 30
_EDGE_WARN = 1e-8  # edge/peak ratio above which a run warns


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-length/2, length/2).

    n must be a power of two (>= 256) so transforms stay fast and mode
    frequencies are the usual FFT set 2*pi*k/length.
    """

    length: float
    n: int

    def __post_init__(self):
        if self.length <= 0.0:
            raise ConfigError(f"grid length must be positive, got {self.length}")
        if self.n < 256 or self.n & (self.n - 1):
            raise ConfigError(f"grid n must be a power of two >= 256, got {self.n}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def xi(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def integrate(self, values: np.ndarray) -> float:
        # periodic trapezoid = plain rectangle sum
        return float(np.sum(values) * self.dx)


@dataclass(frozen=True)
class Field:
    """One spatial snapshot."""

    values: np.ndarray
    time: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ConfigError(f"non-finite field values at t={self.time}")


class HistoryRing:
    """Ring of the last n_h+1 snapshots with their time derivatives.

    dt = h/n_h exactly, so the delayed time t-h always lands on the oldest
    stored node; the one-in step t-h+dt is the next node and the midpoint
    t-h+dt/2 comes from cubic Hermite interpolation on that cell.
    """

    def __init__(self, h: float, n_h: int, width: int, dtype=complex):
        if n_h < 1:
            raise ConfigError(f"n_h must be >= 1, got {n_h}")
        _check_bytes(2 * (n_h + 1) * width * np.dtype(dtype).itemsize,
                     f"a history ring of n_h + 1 = {n_h + 1} rows of "
                     f"{width} points (fields 'n_h' and 'n')")
        self.h = float(h)
        self.n_h = int(n_h)
        self.dt = self.h / self.n_h
        self.vals = np.zeros((n_h + 1, width), dtype)
        self.ders = np.zeros((n_h + 1, width), dtype)
        self._step = 0  # global index of the newest stored snapshot

    def fill(self, vals: np.ndarray, ders: np.ndarray) -> None:
        """Load the initial history; row j is time -h + j*dt."""
        if vals.shape != self.vals.shape or ders.shape != self.ders.shape:
            raise ConfigError(
                f"history shape {vals.shape} does not match ring "
                f"{self.vals.shape}")
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

    def window(self):
        """Stored nodes in time order (values, derivatives); row j is time
        t - h + j*dt for the newest stored time t.  Feeding this back as a
        history pair resumes a run exactly."""
        idx = [self._slot(self._step - self.n_h + j)
               for j in range(self.n_h + 1)]
        return self.vals[idx].copy(), self.ders[idx].copy()


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


def step_count(T: float, dt: float) -> int:
    """Steps of size dt that cover [0, T]; ConfigError (naming T) for a
    negative or non-finite horizon, or one past MAX_STEPS."""
    steps = T / dt
    if not 0.0 <= steps <= MAX_STEPS:
        raise ConfigError(
            f"field 'T' = {T:g} needs {steps:.3g} steps of dt = {dt:.3g}; "
            f"a run may take 0 to {MAX_STEPS}")
    return int(np.ceil(steps - 1e-12))


def edge_fraction(field) -> float:
    """max |u| over the two cells next to the periodic seam, over max |u|."""
    peak = np.max(np.abs(field))
    if peak == 0.0:
        return 0.0
    edge = max(np.max(np.abs(field[:2])), np.max(np.abs(field[-2:])))
    return float(edge / peak)


def warn_edge(edge: float) -> float:
    """Warn once when a run's edge fraction shows it reached the seam."""
    if edge > _EDGE_WARN:
        warnings.warn(f"solution reached the periodic edge "
                      f"(edge/peak = {edge:.2e})", RuntimeWarning)
    return edge


class Outputs:
    """Output schedule of a run of T/dt steps and its stored snapshots.

    Steps 0, out_every, 2 out_every, ... and the last step are kept; the
    default out_every keeps about 400.  The step count and the snapshot
    array must fit MAX_STEPS and MAX_BYTES.  rows maps a kept step to its
    row of the preallocated fields array; store() fills a row and keeps
    the largest edge fraction in edge, for warn_edge once the run ends.
    """

    def __init__(self, T: float, dt: float, out_every: int | None,
                 width: int):
        self.n_steps = step_count(T, dt)
        if out_every is None:
            out_every = max(1, self.n_steps // 400)
        _check_bytes(8 * width * (self.n_steps // out_every + 2),
                     f"snapshots every {out_every} of {self.n_steps} steps "
                     f"(fields 'out_every' and 'T')")
        steps = every_kth(self.n_steps + 1, out_every)
        self.rows = {n: i for i, n in enumerate(steps)}
        self.times = np.array(steps, dtype=float) * dt
        self.fields = np.empty((len(steps), width))
        self.edge = 0.0

    def store(self, row: int, field) -> None:
        self.fields[row] = field
        self.edge = max(self.edge, edge_fraction(field))
