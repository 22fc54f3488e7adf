"""Spectral integrator for the linear delayed non-local equation

    u_t = u_xx + m u_x + p u + (k * u)(t - h, .)

on a periodic grid, plus an independent finite-difference discretization
for cross-validation and the scaled decay diagnostics.

Each Fourier mode obeys the scalar delay equation
w' = (-xi^2 + i m xi + p) w + khat(xi) w(t-h); all modes advance together
by one exact exponential Hermite step (_rk4_delay_diag), reading the
delayed term from a HistoryRing whose node spacing divides the delay
exactly.  The step has no stability limit, so a run takes the n_h it is
given; it is fourth order in dt = h/n_h, including across the derivative
jump at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import CharParams, DecayPair, TangencySolution
from .errors import ConfigError
from .grids import (Field, Grid, HistoryRing, Outputs, edge_fraction,
                    step_count, warn_edge)
from .kernels import Kernel, discretize

__all__ = [
    "LinearTrajectory", "scalar_dde_solve", "solve_linear",
    "solve_linear_fd", "tangency_limit_diagnostic",
    "universal_bound_diagnostic", "probe_value",
]

@dataclass(frozen=True)
class LinearTrajectory:
    """Physical-space snapshots of a linear run."""

    grid: Grid
    times: np.ndarray
    fields: np.ndarray  # (n_out, N) real
    n_h: int
    edge_fraction: float  # max over outputs of edge |u| / max |u|

    def snapshot(self, i: int) -> Field:
        return Field(values=self.fields[i], time=float(self.times[i]))


def _phi(z: np.ndarray) -> list[np.ndarray]:
    """e^z - 1 and phi_1(z) .. phi_4(z), elementwise.

    phi_1 = (e^z - 1) / z and phi_{j+1} = (phi_j - 1/j!) / z; where
    |z| < 1 that recurrence cancels, so the Taylor series
    sum_i z^i / (i + j)! (20 terms) is used there instead.
    """
    small = np.abs(z) < 1.0
    z_small, z_big = np.where(small, z, 0.0), np.where(small, 1.0, z)
    phis = [np.expm1(z)]
    rest = phis[0]  # phi_{j-1} - 1/(j-1)!
    for j in range(1, 5):
        series = sum(z_small ** i / math.factorial(i + j) for i in range(20))
        phis.append(np.where(small, series, rest / z_big))
        rest = phis[-1] - 1.0 / math.factorial(j)
    return phis


def _rk4_delay_diag(mu, kap, ring: HistoryRing, n_steps: int, collect=None):
    """Advance the diagonal delayed system w' = mu w + kap w(t-h).

    Over one step the delayed term is the cubic Hermite interpolant of the
    ring cell (d0, d0', d1, d1'), so variation of constants integrates the
    step exactly with the phi-functions of z = mu dt (exponential
    quadrature): no stages and no stability limit.  At t = 0 the solution's
    derivative jumps from the history's to mu w0 + kap w(-h); the cell
    [0, dt] is read with that right derivative once the cell before it is
    done, which keeps the step fourth order on constant-history data.
    The name predates this step; perfbench/layertrace.py wraps it by name.
    """
    dt = ring.dt
    em1, p1, p2, p3, p4 = _phi(mu * dt)
    a0 = dt * kap * (p1 - 6.0 * p3 + 12.0 * p4)
    a1 = dt * kap * (6.0 * p3 - 12.0 * p4)
    b0 = dt * dt * kap * (p2 - 4.0 * p3 + 6.0 * p4)
    b1 = dt * dt * kap * (6.0 * p4 - 2.0 * p3)
    w = ring.newest.copy()
    right0 = mu * w + kap * ring.delayed_nodes()[0][0]
    if collect is not None:
        collect(0, w)
    for n in range(n_steps):
        (d0, e0), (d1, e1) = ring.delayed_nodes()
        if n == ring.n_h:
            e0[...] = right0  # the ring row of t = 0
        # w + (e^z - 1) w, not e^z w: one rounded e^z applied N times
        # drifts coherently by up to N ulps, a rounded increment does not
        w = w + (em1 * w + a0 * d0 + a1 * d1 + b0 * e0 + b1 * e1)
        ring.push(w, mu * w + kap * d1)
        if collect is not None:
            collect(n + 1, w)
    return w


def _profile(u0, width: int, dtype=float) -> np.ndarray:
    """u0 as one (width,) profile: a Field, an array, or a scalar constant.

    Only an h = 0 run reaches this with a callable or a history pair; both
    describe a delay window, which an undelayed run does not have.
    """
    if callable(u0) or isinstance(u0, tuple):
        raise ConfigError("h=0 takes a single initial profile")
    prof = np.asarray(u0.values if isinstance(u0, Field) else u0, dtype)
    if prof.ndim == 0:
        prof = np.full(width, prof[()])
    if prof.shape != (width,):
        raise ConfigError(
            f"history profile must have shape ({width},), got {prof.shape}")
    return prof


def _history_samples(u0, n_h: int, h: float, width: int, dtype):
    """Sample history and its time derivative on the ring nodes.

    u0 may be a constant profile (see _profile), a callable s -> profile
    on [-h, 0], or a (values, derivatives) pair of (n_h+1, width) arrays.
    """
    shape = (n_h + 1, width)
    if isinstance(u0, tuple) and len(u0) == 2:
        vals = np.asarray(u0[0], dtype)
        ders = np.asarray(u0[1], dtype)
        if vals.shape != shape or ders.shape != shape:
            raise ConfigError(
                f"history arrays must have shape {shape}, got {vals.shape}")
        return vals.copy(), ders.copy()
    if callable(u0):
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
    vals = np.tile(_profile(u0, width, dtype), (n_h + 1, 1))
    return vals, np.zeros(shape, dtype)


def scalar_dde_solve(mu: complex, kappa: complex, h: float, history, T: float,
                     dt: float):
    """Integrate the scalar delay equation w' = mu w + kappa w(t-h).

    history is a callable on [-h, 0] (or a constant); dt must divide h.
    Returns (times, values) on [0, T].
    """
    if h <= 0.0 or dt <= 0.0:
        raise ConfigError("scalar_dde_solve needs h > 0 and dt > 0")
    n_h = round(h / dt)
    if n_h < 1 or abs(n_h * dt - h) > 1e-9 * h:
        raise ConfigError(f"dt={dt} does not divide the delay h={h}")
    fn = history if callable(history) else (lambda s: history)
    vals, ders = _history_samples(lambda s: np.array([fn(s)], dtype=complex),
                                  n_h, h, 1, complex)
    ring = HistoryRing(h, n_h, 1, complex)
    ring.fill(vals, ders)
    n_steps = step_count(T, ring.dt)
    out = np.empty(n_steps + 1, dtype=complex)
    _rk4_delay_diag(np.asarray([mu]), np.asarray([kappa]), ring, n_steps,
                    lambda n, w: out.__setitem__(n, w[0]))
    times = np.arange(n_steps + 1) * ring.dt
    return times, out


def solve_linear(params: CharParams, kernel: Kernel, grid: Grid, u0, T: float,
                 n_h: int | None = None, out_every: int | None = None
                 ) -> LinearTrajectory:
    """Solve the linear delayed non-local equation on the periodic grid.

    The convolution enters as the analytic transform khat(xi) per mode, so
    spatial accuracy is spectral and the only discretization parameters are
    the grid itself and the step dt = h/n_h.  The step is exact for the
    stiff part of every mode, so n_h (default 64) sets accuracy only and
    is used as given.

    u0: constant profile, callable s -> profile on [-h, 0], or a
    (values, derivatives) history pair; see _history_samples.
    Snapshots follow the grids.Outputs schedule (out_every=None keeps
    about 400), which also emits the truncation warning when the solution
    touches the periodic edge; for h = 0 the exact solution is sampled at
    257 equally spaced times instead.
    """
    xi = grid.xi
    mu = -xi * xi + 1j * params.m * xi + params.p
    kap = kernel.fourier(xi)

    if params.h == 0.0:
        w0 = np.fft.fft(_profile(u0, grid.n))
        times = np.linspace(0.0, T, 257)
        fields = np.empty((times.size, grid.n))
        for i, t in enumerate(times):
            fields[i] = np.fft.ifft(w0 * np.exp((mu + kap) * t)).real
        edge = warn_edge(max(edge_fraction(f) for f in fields))
        return LinearTrajectory(grid=grid, times=times, fields=fields,
                               n_h=0, edge_fraction=edge)

    n_h = 64 if n_h is None else int(n_h)
    out = Outputs(T, params.h / n_h, out_every, grid.n)
    ring = HistoryRing(params.h, n_h, grid.n, complex)
    hv, hd = _history_samples(u0, n_h, params.h, grid.n, float)
    ring.fill(np.fft.fft(hv, axis=1), np.fft.fft(hd, axis=1))
    rows = out.rows

    def collect(n, w):
        i = rows.get(n)
        if i is not None:
            out.store(i, np.fft.ifft(w).real)

    _rk4_delay_diag(mu, kap, ring, out.n_steps, collect)
    return LinearTrajectory(grid=grid, times=out.times, fields=out.fields,
                           n_h=n_h, edge_fraction=warn_edge(out.edge))


def solve_linear_fd(params: CharParams, kernel: Kernel, grid: Grid, u0,
                    T: float, n_h: int | None = None,
                    out_every: int | None = None) -> LinearTrajectory:
    """Finite-difference cross-check of solve_linear.

    Second-order central Laplacian, second-order one-sided (upwinded)
    drift, and the convolution evaluated by trapezoid quadrature of the
    sampled kernel.  Deliberately shares no spatial machinery with the
    spectral path beyond the FFT used to apply the sampled-kernel
    circulant.
    """
    if params.h <= 0.0:
        raise ConfigError("FD cross-check requires h > 0")
    dx = grid.dx
    dk = discretize(kernel, grid)
    kmult = dk.multiplier

    def conv(u):
        return np.fft.ifft(kmult * np.fft.fft(u)).real

    m, p = params.m, params.p

    def apply_op(u):
        lap = (np.roll(u, 1) - 2.0 * u + np.roll(u, -1)) / (dx * dx)
        if m > 0:
            drift = m * (-3.0 * u + 4.0 * np.roll(u, -1) - np.roll(u, -2)) \
                / (2.0 * dx)
        elif m < 0:
            drift = m * (3.0 * u - 4.0 * np.roll(u, 1) + np.roll(u, 2)) \
                / (2.0 * dx)
        else:
            drift = 0.0
        return lap + drift + p * u

    # classical RK4 is stable for |lambda| dt up to about 2.8 on the real
    # axis; raise n_h so the stiffest FD mode stays inside 2.5 of it
    stiffness = 4.0 / (dx * dx) + 3.0 * abs(m) / dx + abs(p) + kernel.mass
    n_h = max(64 if n_h is None else n_h,
              math.ceil(params.h * stiffness / 2.5))
    dt = params.h / n_h
    out = Outputs(T, dt, out_every, grid.n)

    cring = HistoryRing(params.h, n_h, grid.n, float)
    vals, ders = _history_samples(u0, n_h, params.h, grid.n, float)
    cring.fill(np.stack([conv(v) for v in vals]),
               np.stack([conv(d) for d in ders]))

    w = vals[-1]
    right0 = conv(apply_op(w) + cring.delayed_nodes()[0][0])
    out.store(0, w)
    for n in range(out.n_steps):
        (c0, e0), (c1, _) = cring.delayed_nodes()
        if n == n_h:
            # the ring row of t = 0: the cell [0, dt] takes the right
            # derivative at the jump (see _rk4_delay_diag)
            e0[...] = right0
        cm = cring.delayed_mid()
        k1 = apply_op(w) + c0
        k2 = apply_op(w + (0.5 * dt) * k1) + cm
        k3 = apply_op(w + (0.5 * dt) * k2) + cm
        k4 = apply_op(w + dt * k3) + c1
        w = w + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        der = apply_op(w) + c1
        cring.push(conv(w), conv(der))
        i = out.rows.get(n + 1)
        if i is not None:
            out.store(i, w)
    return LinearTrajectory(grid=grid, times=out.times, fields=out.fields,
                           n_h=n_h, edge_fraction=warn_edge(out.edge))


def probe_value(traj: LinearTrajectory, i: int, x: float) -> float:
    """Linear interpolation of snapshot i at abscissa x."""
    g = traj.grid
    pos = (x + g.length / 2.0) / g.dx
    j = int(np.floor(pos)) % g.n
    frac = pos - np.floor(pos)
    f = traj.fields[i]
    return float((1.0 - frac) * f[j] + frac * f[(j + 1) % g.n])


def tangency_limit_diagnostic(traj: LinearTrajectory,
                              tang: TangencySolution,
                              x_probe: float = 0.0):
    """Scaled pointwise decay series

        D(t) = sqrt(t) e^{gamma_m t} u(t, x_probe) e^{-z_m x_probe},

    which approaches (integral of u0) / (2 sqrt(pi sigma_m)) when the
    tangency asymptotics hold."""
    times = traj.times
    D = np.empty_like(times)
    scale = np.exp(-tang.z_m * x_probe)
    for i, t in enumerate(times):
        D[i] = np.sqrt(t) * np.exp(tang.gamma_m * t) * \
            probe_value(traj, i, x_probe) * scale
    return times, D


def universal_bound_diagnostic(traj: LinearTrajectory, pair: DecayPair):
    """Scaled sup series S(t) = sqrt(t) e^{gamma0 t} sup_x |u| e^{-z0 x};
    bounded whenever the universal pointwise bound holds."""
    x = traj.grid.x
    tilt = np.exp(-pair.z0 * x)
    times = traj.times
    S = np.empty_like(times)
    for i, t in enumerate(times):
        S[i] = np.sqrt(t) * np.exp(pair.gamma0 * t) * \
            np.max(np.abs(traj.fields[i]) * tilt)
    return times, S
