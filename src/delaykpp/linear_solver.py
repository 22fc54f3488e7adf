"""Spectral integrator for the linear delayed non-local equation

    u_t = u_xx + m u_x + p u + (k * u)(t - h, .)

on a periodic grid, and the scaled decay diagnostics.

Each Fourier mode obeys the scalar delay equation
w' = (-xi^2 + i m xi + p) w + khat(xi) w(t-h).  The field is real, so
the n/2 + 1 modes of the half spectrum (rfft, Grid.xi) determine it and
the other half, their conjugates, are never formed.  The modes the
delay couples, those with a Hermite weight that is nonzero after the
flush (268 of 1025 on xval-smooth, none for a kernel of mass 0),
advance together by one exact exponential Hermite step
(_rk4_delay_diag), a block of steps per array operation, reading the
delayed term from a HistoryRing of their own whose node spacing divides
the delay exactly.  The step has no stability limit, so a run takes the
n_h it is given; it is fourth order in dt = h/n_h, including across the
derivative jump at t = 0.  Parts of a stored row below 1e-150 of its
largest part are flushed to 0 (_flush), once per block, so the decaying
high modes never reach the slow subnormal range; no output changes by
it.

Every other mode has khat so small that all its weights are exactly 0:
it obeys w' = mu w, so it is not stepped but sampled in closed form,
w0 e^{mu t}, at the kept steps only.  It carries no discretisation
error.  At h = 0 the same sampler solves the equation exactly: no mode
is coupled and each obeys w' = (mu + khat) w, sampled as
w0 e^{(mu + khat) t} on a schedule with step T/256.  A run with no
coupled mode (h = 0, or a kernel of mass 0, the heat equation) builds no
ring and takes no step.  Every kept snapshot passes through
grids.Outputs, the output gate the KPP solver shares: schedule, byte
budget, finiteness check and edge warning; it is then handed to the
run's collect, and the solver keeps none.

The decay diagnostics D and S reduce each snapshot to two numbers, its
value at a probe abscissa and its tilted sup, in a DecayScan, which
runs as the solver's collect; the time factors sqrt(t) e^{gamma t} are
applied over the whole run afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristic import CharParams, DecayPair, TangencySolution
from .errors import ConfigError
from .grids import (DEFAULT_N_H, Grid, HistoryRing, Outputs, Trajectory,
                    _history_samples)
from .kernels import Kernel

__all__ = ["solve_linear", "DecayScan", "tangency_limit_diagnostic",
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
_BLOCK_ELEMS = 8192  # entries of one block array of _rk4_delay_diag: 128 KiB


def _flush(v: np.ndarray) -> np.ndarray:
    """Zero, in place, every real and imaginary part of each row of v (of
    v itself when it is 1-D) whose magnitude is below _FLUSH times the
    largest part in that row; returns v, unchanged when it is empty."""
    parts = v.view(float)  # a complex v as its real and imaginary parts
    mag = np.abs(parts)
    np.putmask(parts, mag < _FLUSH * mag.max(axis=-1, keepdims=True,
                                             initial=0.0), 0.0)
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


def _rk4_delay_diag(mu, kap, ring: HistoryRing, n_steps: int, collect):
    """Advance the diagonal delayed system w' = mu w + kap w(t-h) from the
    ring's newest row; collect(n, w) sees w at step 0 and after each step,
    and is the only output: nothing is returned.

    Over one step the delayed term is the cubic Hermite interpolant of the
    ring cell (d0, d0', d1, d1'), so variation of constants integrates the
    step exactly with the phi-functions of z = mu dt (exponential
    quadrature): no stages and no stability limit.  At t = 0 the solution's
    derivative jumps from the history's to mu w0 + kap w(-h); the cell
    [0, dt] is read with that right derivative, right0.  Step n_h reads
    the ring row of t = 0 through right0 in its b0 term only, while step
    n_h - 1 reads the same row through its b1 term with the left
    derivative, so the ring row itself is left as it is.  This keeps the
    step fourth order on constant-history data.
    The name predates this step; perfbench/layertrace.py wraps it by name.
    mu, kap and every array the step touches have the ring's width:
    solve_linear passes the coupled modes of the half spectrum only (268
    of 1025 on xval-smooth), and builds no ring when there are none
    (h = 0, or a kernel of mass 0), so the ring is never empty.  Overflow
    is left to the caller's finiteness check.

    Steps go a block of B at a time, B = min(n_h, steps left, rows before
    the ring wraps, max(1, _BLOCK_ELEMS // width)).  B <= n_h steps read
    only the B + 1 delayed rows (D values, E derivatives) that the ring
    already holds (HistoryRing.delayed_rows), so the forcing
    F = a0 D0 + a1 D1 + b0 E0 + b1 E1 and kap D1 are each one array
    operation over the block, and only w + ((e^z - 1) w + F[k]) runs step
    by step, written straight into the rows the block stores
    (HistoryRing.store_rows).  The derivative rows mu W + kap D1 are then
    formed over the whole block.  collect is called after each block with
    views of the ring's rows, which later blocks overwrite: it copies
    what it keeps.

    Modes decay at their own rates, so the high ones run down through
    the subnormal range (below 2.2e-308), where x86 arithmetic is many
    times slower: unflushed (theta = 0, which couples 391 modes, not
    268), 55.6% of the ring's entries on xval-smooth end with a subnormal
    part; flushed, none does and 58.0% are exactly 0.  _flush zeros the
    parts below theta = _FLUSH = 1e-150 of their row's largest part M in
    the four Hermite coefficients (a Gaussian khat crosses the subnormal
    range near |xi| = 38), and, once per block, in each stored value row
    and then in each derivative row; not in em1 = e^z - 1, whose small
    entries carry the slow modes.  Within a block the carried w is not
    flushed, so it may pass through subnormals for up to B steps; the
    carried w of the next block is the flushed last row.  The rows hold
    the coupled modes only, so their M is the coupled modes' largest
    part, which may keep a part that a row over all modes would have
    flushed.
    The ring's rows at entry are flushed by whoever fills the ring, once
    per distinct row (solve_linear flushes each over the half spectrum,
    then keeps the coupled modes, and fills a constant history as one row
    broadcast to every node).  The flush is relative because the linear
    equation has no scale.
    - Staying normal: every kept part is at least theta M, so a product
      of two kept factors is at least theta^2 = 1e-300 times the product
      of their arrays' largest parts, which is normal while that product
      is above about 1e-8; the stored rows hold only kept parts while M
      stays above 2.2e-308 / theta = 2.2e-158.
    - Outputs unchanged: the modes are uncoupled, so a part flushed or
      kept perturbs only its own mode, by less than theta times its
      row's largest part.  An output is an inverse FFT whose sums add
      such a part to terms of size up to M, 134 decades below their 17th
      digit, so it cannot reach one; desk-tangency-linear's and
      xval-smooth's fields are byte-identical with and without the flush
      (and take 4x and 2.4x as long without it).
    - A single mode is its own largest part and is never flushed (unless
      one of its real and imaginary parts is below theta times the
      other), so a one-mode run matches its unflushed run bit for bit.
    """
    w = ring.newest.copy()
    em1, a0, a1, b0, b1 = _step_weights(mu, kap, ring.dt)
    right0 = _flush(mu * w + kap * ring.delayed_nodes()[0][0])
    collect(0, w)
    rows = min(ring.n_h, max(1, _BLOCK_ELEMS // w.size))
    force, term, kd1 = (np.empty((rows, w.size), w.dtype) for _ in range(3))
    inc = np.empty_like(w)
    mul, add = np.multiply, np.add
    n = 0
    while n < n_steps:
        B = min(rows, n_steps - n, ring.room)
        D, E = ring.delayed_rows(B)
        f, t, kd = force[:B], term[:B], kd1[:B]
        mul(a0, D[:-1], out=f)
        f += mul(a1, D[1:], out=t)
        mul(b0, E[:-1], out=t)
        if 0 <= ring.n_h - n < B:  # step n_h reads the t = 0 row's right0
            mul(b0, right0, out=t[ring.n_h - n])
        f += t
        f += mul(b1, E[1:], out=t)
        mul(kap, D[1:], out=kd)
        W, Wd = ring.store_rows(B)  # the rows of D0 and E0, read above
        for k in range(B):
            # w + (e^z - 1) w, not e^z w: one rounded e^z applied N times
            # drifts coherently by up to N ulps, a rounded increment does
            # not
            mul(em1, w, out=inc)
            inc += f[k]
            w = add(w, inc, out=W[k])
        _flush(W)
        mul(mu, W, out=Wd)
        Wd += kd
        _flush(Wd)
        w = W[-1]
        for k in range(B):
            collect(n + k + 1, W[k])
        n += B


def solve_linear(params: CharParams, kernel: Kernel, grid: Grid, u0, T: float,
                 n_h: int | None = None, out_every: int | None = None,
                 *, collect) -> Trajectory:
    """Solve the linear delayed non-local equation on the periodic grid.

    The convolution enters as the analytic transform khat(xi) per mode, so
    spatial accuracy is spectral and the only discretization parameters are
    the grid itself and the step dt = h/n_h.  The step is exact for the
    stiff part of every mode, so n_h (default DEFAULT_N_H) sets accuracy
    only and is used as given.  The modes are the half spectrum of the
    real field (Grid.xi, rfft and irfft).  Only those the delay couples
    are stepped, from a ring of their own; every other mode is sampled in
    closed form, w0 e^{rate t}, at each kept step t = n dt, with w0 from
    the flushed t = 0 row and rate = mu.  A run with no coupled mode
    builds no ring, takes no step and does not depend on n_h.

    u0: constant profile, or callable s -> profile on [-h, 0]; see
    grids._history_samples.
    Snapshots pass through grids.Outputs (out_every=None keeps about
    400), which refuses a non-finite one and warns when the solution
    touches the periodic edge; each kept snapshot then goes to
    collect(t, u), and the returned Trajectory is the run's record.  u
    is a fresh array that the solver never writes again.  The edge
    fraction covers every kept snapshot, and the kept snapshots must fit
    grids.MAX_BYTES whatever collect does with them.  At h = 0
    no mode is coupled and rate = mu + kap, so the solution is exact; it
    is kept at the 257 times k T/256 of a schedule with step T/256 (one
    snapshot when T = 0), and n_h, out_every and a negative T are
    refused.
    """
    xi = grid.xi
    mu = -xi * xi + 1j * params.m * xi + params.p
    kap = kernel.fourier(xi)
    h = params.h

    if h == 0.0:
        for name, value in (("n_h", n_h), ("out_every", out_every)):
            if value is not None:
                raise ConfigError(
                    f"field '{name}' must be omitted at h = 0: the exact "
                    "undelayed solution takes no steps")
        if not T >= 0.0:
            raise ConfigError(f"field 'T' = {T:g}: the horizon must be >= 0")
        n_h, dt, out_every = 0, T / 256.0 if T > 0.0 else 1.0, 1
        # no delay couples a mode: each grows at mu + kap
        coupled, rate = np.zeros(xi.size, bool), mu + kap
    else:
        n_h = DEFAULT_N_H if n_h is None else int(n_h)
        dt, rate = h / n_h, mu
        with np.errstate(over="ignore", invalid="ignore"):  # as in the step
            coupled = np.any(_step_weights(mu, kap, dt)[1:], axis=0)
    delay = f"'params.h' = {h:g} and 'n_h' = {n_h:g}" if h > 0.0 else None
    out = Outputs(T, dt, out_every, grid.n, collect, delay)
    ring = HistoryRing(h, n_h, int(np.count_nonzero(coupled)), complex) \
        if coupled.any() else None
    hv, hd = _history_samples(u0, n_h, h, grid.n, float)
    # one row per node, or one for a constant; each flushed on its own
    vals, ders = (_flush(np.fft.rfft(a, axis=1)) for a in (hv, hd))
    free = ~coupled
    w_free, rate_free = vals[-1, free], rate[free]

    def keep(n, w):
        if n in out.rows:  # the transform only for a kept step
            spectrum = np.empty(xi.size, complex)
            spectrum[coupled] = w
            spectrum[free] = w_free * np.exp(rate_free * (n * dt))
            out.store(n, np.fft.irfft(spectrum, grid.n))

    with np.errstate(over="ignore", invalid="ignore"):  # Outputs reports it
        if ring is None:
            for n in out.rows:
                keep(n, vals[-1, coupled])
        else:
            ring.fill(vals[:, coupled], ders[:, coupled])
            _rk4_delay_diag(mu[coupled], kap[coupled], ring, out.n_steps,
                            keep)
    return out.trajectory(n_h)


def probe_value(grid: Grid, u: np.ndarray, x: float) -> float:
    """Linear interpolation of the snapshot u at abscissa x."""
    pos = (x + grid.length / 2.0) / grid.dx
    j = int(np.floor(pos)) % grid.n
    frac = pos - np.floor(pos)
    return (1.0 - frac) * u[j] + frac * u[(j + 1) % grid.n]


class DecayScan:
    """The per-snapshot parts of the decay diagnostics, one snapshot at a
    time.

    Each call scan(t, u) appends t, the probe value u(t, x_probe) and the
    tilted sup sup_x |u| e^{-z0 x} (z0 of pair) to times, probe and sup.
    Passed to solve_linear as collect, it reduces every kept snapshot as
    the solver makes it, so none is stored.  The diagnostics apply their
    time factors to these lists over the whole run."""

    def __init__(self, grid: Grid, pair: DecayPair, x_probe: float = 0.0):
        self.grid = grid
        self.pair = pair
        self.x_probe = x_probe
        self._tilt = np.exp(-pair.z0 * grid.x)
        self.times: list[float] = []
        self.probe: list[float] = []
        self.sup: list[float] = []

    def __call__(self, t: float, u: np.ndarray) -> None:
        self.times.append(t)
        self.probe.append(probe_value(self.grid, u, self.x_probe))
        self.sup.append(np.max(np.abs(u) * self._tilt))


def tangency_limit_diagnostic(scan: DecayScan,
                              tang: TangencySolution) -> np.ndarray:
    """Scaled pointwise decay series, one array over the scanned times,

        D(t) = sqrt(t) e^{gamma_m t} u(t, x_probe) e^{-z_m x_probe}.

    For a constant history u0 it approaches, when the tangency
    asymptotics hold,

        R (integral of u0(y) e^{-z_m y} dy) / (2 sqrt(pi sigma_m)),
        R = [1 + kappa (1 - e^{-s h}) / s] / (1 + h kappa e^{-s h}),

    at s = -gamma_m and kappa = tang.khat0, the tilted kernel's mass: R
    is the residue of the principal root for a constant history.  On
    desk-tangency-linear (n_h 64) a fit of D_inf + a/t + b/t^2 + c/t^3 to
    D over t >= 100 lands 3.5e-10 from it; the untilted mass without R is
    2.4% away."""
    t = np.array(scan.times)
    return np.sqrt(t) * np.exp(tang.gamma_m * t) * \
        np.array(scan.probe) * np.exp(-tang.z_m * scan.x_probe)


def universal_bound_diagnostic(scan: DecayScan) -> np.ndarray:
    """Scaled sup series S(t) = sqrt(t) e^{gamma0 t} sup_x |u| e^{-z0 x},
    one array over the scanned times, (z0, gamma0) the scan's pair;
    bounded whenever the universal pointwise bound holds."""
    t = np.array(scan.times)
    return np.sqrt(t) * np.exp(scan.pair.gamma0 * t) * np.array(scan.sup)
