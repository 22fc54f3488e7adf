"""Spectral integrator for the linear delayed non-local equation

    u_t = u_xx + m u_x + p u + (k * u)(t - h, .)

on a periodic grid, and the scaled decay diagnostics.

Each Fourier mode obeys the scalar delay equation
w' = (-xi^2 + i m xi + p) w + khat(xi) w(t-h); all modes advance together
by one exact exponential Hermite step (_rk4_delay_diag), reading the
delayed term from a HistoryRing whose node spacing divides the delay
exactly.  The step has no stability limit, so a run takes the n_h it is
given; it is fourth order in dt = h/n_h, including across the derivative
jump at t = 0.  Parts of a mode array below 1e-150 of its largest part
are flushed to 0 (_flush), so the decaying high modes never reach the
slow subnormal range; no output changes by it.

The ring holds only the modes the delay couples: those with a Hermite
weight that is nonzero after the flush (535 of 2048 on xval-smooth, none
for a kernel of mass 0).  Every other mode has khat so small that all
its weights are exactly 0, so it never reads its history and only
decays; it is stepped without one, which changes no bit of any output.

At h = 0 the equation is solved exactly, mode by mode, at the times of a
schedule with step T/256.  Either way every kept snapshot passes through
grids.Outputs, the output gate the KPP solver shares: schedule, byte
budget, finiteness check and edge warning.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristic import CharParams, DecayPair, TangencySolution
from .errors import ConfigError
from .grids import DEFAULT_N_H, Grid, HistoryRing, Outputs, Trajectory
from .kernels import Kernel

__all__ = ["solve_linear", "tangency_limit_diagnostic",
           "universal_bound_diagnostic", "probe_value"]


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


_FLUSH = 1e-150  # theta of _flush


def _flush(v: np.ndarray) -> np.ndarray:
    """Zero, in place, every real and imaginary part of v whose magnitude
    is below _FLUSH times the largest part in v; returns v, unchanged
    when it is empty (the ring rows of a kernel of mass 0)."""
    parts = v.view(float)  # a complex v as its real and imaginary parts
    mag = np.abs(parts)
    np.putmask(parts, mag < _FLUSH * mag.max(initial=0.0), 0.0)
    return v


def _step_weights(mu, kap, dt: float):
    """e^z - 1 (z = mu dt) and the flushed Hermite weights a0, a1, b0, b1
    of one step, mode by mode (see _rk4_delay_diag).  A mode whose four
    weights are all 0 never reads the delayed term."""
    em1, p1, p2, p3, p4 = _phi(mu * dt)
    return (em1, *(_flush(c) for c in (
        dt * kap * (p1 - 6.0 * p3 + 12.0 * p4),
        dt * kap * (6.0 * p3 - 12.0 * p4),
        dt * dt * kap * (p2 - 4.0 * p3 + 6.0 * p4),
        dt * dt * kap * (6.0 * p4 - 2.0 * p3))))


def _rk4_delay_diag(mu, kap, ring: HistoryRing, n_steps: int, collect=None,
                    w0=None):
    """Advance the diagonal delayed system w' = mu w + kap w(t-h).

    Over one step the delayed term is the cubic Hermite interpolant of the
    ring cell (d0, d0', d1, d1'), so variation of constants integrates the
    step exactly with the phi-functions of z = mu dt (exponential
    quadrature): no stages and no stability limit.  At t = 0 the solution's
    derivative jumps from the history's to mu w0 + kap w(-h); the cell
    [0, dt] is read with that right derivative once the cell before it is
    done, which keeps the step fourth order on constant-history data.
    The name predates this step; perfbench/layertrace.py wraps it by name.

    The ring holds only the first nc = its width modes, the coupled ones;
    w0 is the full starting vector (default: the ring's newest row, so
    nc = mu.size) with those modes first.  A mode past nc must have all
    four Hermite weights 0 after the flush (_step_weights): it never reads
    the delayed term, so it only decays, w + (e^z - 1) w, and keeping its
    history would change no bit of it.  The coupled modes add their four
    delayed terms to (e^z - 1) w in the same order as a run with every
    mode in the ring, so both give the same bits.  Once the free tail is
    all 0 it stays 0 and is dropped; collect(n, w) then gets the first nc
    modes only.  Overflow is left to the caller's finiteness check.

    Modes decay at their own rates, so the high ones run down through
    the subnormal range (below 2.2e-308), where x86 arithmetic is many
    times slower: unflushed, 35.6% of the ring's entries on xval-smooth
    end with a subnormal part (and 48.1% at exactly 0).  _flush zeros the
    parts below theta = _FLUSH = 1e-150 of their array's largest part M in
    the four Hermite coefficients (a Gaussian khat crosses the subnormal
    range near |xi| = 38), in each new w (all modes, so the threshold does
    not depend on nc) and in each pushed derivative row; not in em1 =
    e^z - 1, whose small entries carry the slow modes.  A derivative row
    holds the coupled modes only, so its M is their largest part, which
    may keep a part that a row over all modes would have flushed.  The
    ring's rows at entry are flushed by whoever fills the ring, once per
    distinct row (solve_linear fills a constant history as one row
    broadcast to every node).  The flush is relative because the linear
    equation has no scale.
    - Staying normal: every kept part is at least theta M, so a product
      of two kept factors is at least theta^2 = 1e-300 times the product
      of their arrays' largest parts, which is normal while that product
      is above about 1e-8; the stored rows hold only kept parts while M
      stays above 2.2e-308 / theta = 2.2e-158.
    - Outputs unchanged: the modes are uncoupled, so a part flushed or
      kept perturbs only its own mode, by less than theta times its
      array's largest part.  An output is an inverse FFT whose sums add
      such a part to terms of size up to M, 134 decades below their 17th
      digit, so it cannot reach one; every preset's CSV and report are
      byte-identical with and without the flush, and with the
      derivative rows flushed over all modes or over the coupled ones.
    - A single mode is its own largest part and is never flushed (unless
      one of its real and imaginary parts is below theta times the
      other), so a one-mode run matches its unflushed run bit for bit.
    """
    nc = ring.newest.size
    em1, *weights = _step_weights(mu, kap, ring.dt)
    a0, a1, b0, b1 = (c[:nc] for c in weights)
    mu_c, kap_c = mu[:nc], kap[:nc]
    w = (ring.newest if w0 is None else w0).copy()
    right0 = _flush(mu_c * w[:nc] + kap_c * ring.delayed_nodes()[0][0])
    if collect is not None:
        collect(0, w)
    for n in range(n_steps):
        (d0, e0), (d1, e1) = ring.delayed_nodes()
        if n == ring.n_h:
            e0[...] = right0  # the ring row of t = 0
        # w + (e^z - 1) w, not e^z w: one rounded e^z applied N times
        # drifts coherently by up to N ulps, a rounded increment does not
        inc = em1 * w
        head = inc[:nc]
        head += a0 * d0
        head += a1 * d1
        head += b0 * e0
        head += b1 * e1
        w = _flush(w + inc)
        if w.size > nc and not w[nc:].any():
            w, em1 = w[:nc], em1[:nc]
        ring.push(w[:nc], _flush(mu_c * w[:nc] + kap_c * d1))
        if collect is not None:
            collect(n + 1, w)
    return w


def _profile(u0, width: int, dtype=float) -> np.ndarray:
    """u0 as one (width,) profile: an array or a scalar constant.

    Only an h = 0 run reaches this with a callable, which describes a
    delay window that an undelayed run does not have.
    """
    if callable(u0):
        raise ConfigError("h=0 takes a single initial profile")
    prof = np.asarray(u0, dtype)
    if prof.ndim == 0:
        prof = np.full(width, prof[()])
    if prof.shape != (width,):
        raise ConfigError(
            f"history profile must have shape ({width},), got {prof.shape}")
    return prof


def _history_samples(u0, n_h: int, h: float, width: int, dtype):
    """Sample history and its time derivative on the ring nodes.

    u0 may be a constant profile (see _profile) or a callable s -> profile
    on [-h, 0].  A constant profile gives one (1, width) row of values and
    one of zero derivatives, which HistoryRing.fill broadcasts to every
    node.
    """
    if callable(u0):
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
    # a copy, not u0 itself: solve_kpp floors the history in place
    vals = np.array(_profile(u0, width, dtype), ndmin=2)
    return vals, np.zeros_like(vals)


def solve_linear(params: CharParams, kernel: Kernel, grid: Grid, u0, T: float,
                 n_h: int | None = None, out_every: int | None = None
                 ) -> Trajectory:
    """Solve the linear delayed non-local equation on the periodic grid.

    The convolution enters as the analytic transform khat(xi) per mode, so
    spatial accuracy is spectral and the only discretization parameters are
    the grid itself and the step dt = h/n_h.  The step is exact for the
    stiff part of every mode, so n_h (default DEFAULT_N_H) sets accuracy
    only and is used as given.

    u0: constant profile, or callable s -> profile on [-h, 0]; see
    _history_samples.
    Snapshots pass through grids.Outputs (out_every=None keeps about
    400), which refuses a non-finite one and warns when the solution
    touches the periodic edge.  For h = 0 the exact solution is sampled
    instead, at the 257 times k T/256 of a schedule with step T/256 (one
    snapshot when T = 0); it takes no step, and refuses n_h, out_every
    and a negative T.
    """
    xi = grid.xi
    mu = -xi * xi + 1j * params.m * xi + params.p
    kap = kernel.fourier(xi)

    if params.h == 0.0:
        for name, value in (("n_h", n_h), ("out_every", out_every)):
            if value is not None:
                raise ConfigError(
                    f"field '{name}' must be omitted at h = 0: the exact "
                    "undelayed solution takes no steps")
        if not T >= 0.0:
            raise ConfigError(f"field 'T' = {T:g}: the horizon must be >= 0")
        out = Outputs(T, T / 256.0 if T > 0.0 else 1.0, 1, grid.n)
        w0 = np.fft.fft(_profile(u0, grid.n))
        for n, t in enumerate(out.times):  # every step is kept
            out.store(n, np.fft.ifft(w0 * np.exp((mu + kap) * t)).real)
        return out.trajectory(grid, 0)

    n_h = DEFAULT_N_H if n_h is None else int(n_h)
    out = Outputs(T, params.h / n_h, out_every, grid.n)
    # the coupled modes first, in their own order; only they are in the ring
    coupled = np.any(_step_weights(mu, kap, params.h / n_h)[1:], axis=0)
    order = np.argsort(~coupled, kind="stable")
    nc = int(np.count_nonzero(coupled))
    ring = HistoryRing(params.h, n_h, nc, complex)
    hv, hd = _history_samples(u0, n_h, params.h, grid.n, float)
    vals, ders = np.fft.fft(hv, axis=1), np.fft.fft(hd, axis=1)
    for row in (*vals, *ders):  # one row per node, or one for a constant
        _flush(row)
    ring.fill(vals[:, order[:nc]], ders[:, order[:nc]])

    def collect(n, w):
        if n in out.rows:  # the transform only for a kept step
            spectrum = np.zeros(grid.n, complex)  # a dropped tail is all 0
            spectrum[order[:w.size]] = w
            out.store(n, np.fft.ifft(spectrum).real)

    with np.errstate(over="ignore", invalid="ignore"):  # Outputs reports it
        _rk4_delay_diag(mu[order], kap[order], ring, out.n_steps, collect,
                        vals[-1, order])
    return out.trajectory(grid, n_h)


def probe_value(traj: Trajectory, i: int, x: float) -> float:
    """Linear interpolation of snapshot i at abscissa x."""
    g = traj.grid
    pos = (x + g.length / 2.0) / g.dx
    j = int(np.floor(pos)) % g.n
    frac = pos - np.floor(pos)
    f = traj.fields[i]
    return float((1.0 - frac) * f[j] + frac * f[(j + 1) % g.n])


def tangency_limit_diagnostic(traj: Trajectory,
                              tang: TangencySolution,
                              x_probe: float = 0.0):
    """Scaled pointwise decay series

        D(t) = sqrt(t) e^{gamma_m t} u(t, x_probe) e^{-z_m x_probe},

    For a constant history u0 it approaches, when the tangency
    asymptotics hold,

        R (integral of u0(y) e^{-z_m y} dy) / (2 sqrt(pi sigma_m)),
        R = [1 + kappa (1 - e^{-s h}) / s] / (1 + h kappa e^{-s h}),

    at s = -gamma_m and kappa = tang.khat0, the tilted kernel's mass: R
    is the residue of the principal root for a constant history.  On
    desk-tangency-linear (n_h 64) a fit of D_inf + a/t + b/t^2 + c/t^3 to
    D over t >= 100 lands 3.5e-10 from it; the untilted mass without R is
    2.4% away."""
    times = traj.times
    D = np.empty_like(times)
    scale = np.exp(-tang.z_m * x_probe)
    for i, t in enumerate(times):
        D[i] = np.sqrt(t) * np.exp(tang.gamma_m * t) * \
            probe_value(traj, i, x_probe) * scale
    return times, D


def universal_bound_diagnostic(traj: Trajectory, pair: DecayPair):
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
