"""Characteristic machinery for the delayed non-local operator.

Everything transcendental lives here: decay pairs (gamma0, z0), tangency
points (gamma_m, z_m) with the variance sigma_m, critical spreading speeds
c*+/-, the kernel shift that tunes c_plus to a given negative value, and
the implicit mode-envelope l(z) with its sandwich bounds.  Pointwise
quantities are Halanay roots, each from the one Newton iteration of
_roots.halanay_root_grid.  Every extremum of the characteristic relation
is found the same way: the interior extremum of a grid of values (Halanay
roots over tilts z for the tangency and over |lambda| for the speeds, a
closed form over lambda for the tuned shift), refined on finer grids by
_zoom_min, and where a coordinate is reported, polished by the Newton
loop _newton2; residual targets are 1e-10 or better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import halanay_root_grid
from .errors import ConfigError, TangencyError
from .kernels import Kernel

__all__ = [
    "CharParams", "DecayPair", "TangencySolution", "SpeedPair",
    "gamma_zero", "gamma_on_grid", "tangency_solve", "critical_speeds",
    "polish_speed", "tune_kernel_shift", "implicit_l", "envelope_bounds",
]


@dataclass(frozen=True)
class CharParams:
    """Drift m, linear rate p and delay h of the linear equation.

    The associated polynomial symbol is q1(z) = -z^2 - m z - p; the kernel
    side q2(z) is supplied separately by a Kernel.  h = 0 is accepted and
    means the undelayed equation (several closed-form controls live there).
    """

    m: float
    p: float
    h: float

    def __post_init__(self):
        if not (np.isfinite(self.m) and np.isfinite(self.p) and np.isfinite(self.h)):
            raise ConfigError("CharParams fields must be finite")
        if self.h < 0:
            raise ConfigError(f"delay h must be >= 0, got {self.h}")

    def q1(self, z):
        z = np.asarray(z, dtype=float)
        return -z * z - self.m * z - self.p

    def q1_prime(self, z):
        z = np.asarray(z, dtype=float)
        return -2.0 * z - self.m


@dataclass(frozen=True)
class DecayPair:
    """Decay rate gamma0 at spatial tilt z0; the root of
    -gamma + q1(z0) = q2(z0) e^{gamma h}."""

    gamma0: float
    z0: float


@dataclass(frozen=True)
class TangencySolution:
    """Tangency data: q1 - gamma_m and e^{h gamma_m} q2 touch at z_m.

    k_star is the second moment of the tilted kernel, khat0 its mass
    (both at tilt z_m); sigma_m is the variance coefficient of the
    sqrt(t) e^{gamma_m t} asymptotics.
    """

    gamma_m: float
    z_m: float
    sigma_m: float
    k_star: float
    khat0: float
    residual_value: float
    residual_slope: float


@dataclass(frozen=True)
class SpeedPair:
    """Critical spreading speeds and the tangency tilts that select them."""

    c_minus: float
    c_plus: float
    lambda_minus: float
    lambda_plus: float
    residuals: tuple

    def __post_init__(self):
        if not self.c_minus < self.c_plus:
            raise ConfigError(
                f"speed ordering violated: c_minus={self.c_minus} "
                f">= c_plus={self.c_plus}")
        if not (self.lambda_minus < 0.0 < self.lambda_plus):
            raise ConfigError(
                f"tilt signs violated: lambda_minus={self.lambda_minus}, "
                f"lambda_plus={self.lambda_plus}")


def gamma_on_grid(params: CharParams, kernel: Kernel, z):
    """Vectorized decay rate gamma(z): unique root of
    q1(z) - gamma = e^{h gamma} q2(z).

    Equivalent to -halanay_root(-q1(z), q2(z), h); the right-hand side is
    monotone in gamma so the root exists and is unique for every z in the
    transform strip.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        q2 = np.real(kernel.laplace(z))
    return -halanay_root_grid(-params.q1(z), q2, params.h)


def gamma_zero(params: CharParams, kernel: Kernel, z0: float) -> DecayPair:
    """Decay pair at a chosen tilt z0.

    Returns (gamma0, z0) where gamma0 is the unique real root of
    -gamma + q1(z0) = q2(z0) e^{gamma h}, with q2 the two-sided Laplace
    transform of the kernel.
    """
    a, b = kernel.domain()
    if not (a < z0 < b):
        raise ConfigError(f"z0={z0} outside transform strip ({a}, {b})")
    g = float(gamma_on_grid(params, kernel, z0))
    return DecayPair(gamma0=g, z0=float(z0))


def _strip_limits(kernel: Kernel):
    a, b = kernel.domain()
    span = min(b - a, 1e6)
    pad = 1e-6 * span
    lo = a + pad if np.isfinite(a) else -np.inf
    hi = b - pad if np.isfinite(b) else np.inf
    return lo, hi


def _newton2(system, x, y, iters: int):
    """Newton's method on a 2x2 system, each step by Cramer's rule.

    system(x, y) returns (r1, r2, j11, j12, j21, j22): the residuals and
    the rows of their Jacobian in (x, y).  Stops after iters steps, at a
    singular Jacobian, or once a step falls below 1e-15 relative to
    1 + |x| + |y|.  Returns (x, y, r1, r2), the residuals taken at the
    point returned.  Overflow and NaN are not warned about: they reach
    the returned residuals, which every caller checks.
    """
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(iters + 1):
            r1, r2, j11, j12, j21, j22 = system(x, y)
            if converged or it == iters:
                break
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                break
            dx = (r1 * j22 - r2 * j12) / det
            dy = (j11 * r2 - j21 * r1) / det
            x, y = x - dx, y - dy
            converged = abs(dx) + abs(dy) < 1e-15 * (1.0 + abs(x) + abs(y))
    return x, y, r1, r2


def _tangency_newton(params, kernel, gam, z):
    h = params.h

    def system(gam, z):
        E = np.exp(h * gam)
        q2 = float(np.real(kernel.laplace(z)))
        m1 = float(np.real(kernel.moment1(z)))
        m2 = float(np.real(kernel.moment2(z)))
        r1 = float(params.q1(z)) - gam - E * q2
        r2 = float(params.q1_prime(z)) + E * m1
        return r1, r2, -1.0 - h * E * q2, r2, h * E * m1, -2.0 - E * m2

    gam, z, r1, r2 = _newton2(system, gam, z, 6)
    return float(gam), float(z), float(r1), float(r2)


def tangency_solve(params: CharParams, kernel: Kernel) -> TangencySolution:
    """Find the tangency point of q1 - gamma and e^{h gamma} q2.

    Scans the decay rate gamma(z) for its interior maximum (the tangency
    tilt z_m).  When the slope function G(z) = q1'(z) - e^{h gamma(z)}
    q2'(z), which shares the sign of gamma'(z), changes sign across the
    maximum's grid neighbours, _zoom_min refines the maximum between them;
    otherwise the grid node seeds the polish.  Newton with the analytic
    Jacobian then polishes the 2x2 system

        q1(z) - gamma = e^{h gamma} q2(z),
        q1'(z)        = e^{h gamma} q2'(z)

    in at most 6 steps, and its residuals must fall below 1e-10.  Returns
    the tangency point with the variance coefficient

        sigma_m = (2 + k_star e^{gamma_m h}) / (2 (1 + h e^{gamma_m h} khat0)).

    Raises TangencyError when gamma(z) has no interior maximum inside the
    transform strip (the tangency hypothesis fails for these parameters).
    """
    def G(zz):
        # a NaN slope fails the sign test below and the grid node is polished
        with np.errstate(over="ignore", invalid="ignore"):
            g = float(gamma_on_grid(params, kernel, zz))
            return float(params.q1_prime(zz)) + \
                np.exp(params.h * g) * float(np.real(kernel.moment1(zz)))

    lo_lim, hi_lim = _strip_limits(kernel)
    center = min(max(-params.m / 2.0, lo_lim), hi_lim)
    half = 1.0
    for _ in range(80):
        lo = max(center - half, lo_lim)
        hi = min(center + half, hi_lim)
        zg = np.linspace(lo, hi, 601)
        gv = gamma_on_grid(params, kernel, zg)
        gv = np.where(np.isfinite(gv), gv, -np.inf)
        j = int(np.argmax(gv))
        at_lo, at_hi = j == 0, j == len(zg) - 1
        if not at_lo and not at_hi:
            break
        if at_lo and lo == lo_lim and np.isfinite(lo_lim) or \
           at_hi and hi == hi_lim and np.isfinite(hi_lim):
            # maximum pinned to the strip edge: no interior tangency
            raise TangencyError(
                "no tangency point inside the transform strip "
                f"({lo_lim:.6g}, {hi_lim:.6g}): slope residual has sign "
                f"{np.sign(G(lo)):+.0f} at the left end and "
                f"{np.sign(G(hi)):+.0f} at the right end")
        center = zg[j]
        half *= 2.0
    else:
        raise TangencyError("tangency scan failed to localize a maximum")

    z_m = zg[j]
    if G(zg[j - 1]) > 0.0 > G(zg[j + 1]):
        z_m = _zoom_min(lambda zz: -gamma_on_grid(params, kernel, zz),
                        zg[j - 1], zg[j + 1])[0]
    gam_m = float(gamma_on_grid(params, kernel, z_m))
    gam_m, z_m, r1, r2 = _tangency_newton(params, kernel, gam_m, z_m)
    if not max(abs(r1), abs(r2)) <= 1e-10:  # NaN residuals fail too
        raise TangencyError(
            f"tangency polish stalled: residuals ({r1:.3e}, {r2:.3e})")

    # critical configurations touch at gamma = 0 exactly; snap roundoff
    if abs(gam_m) < 5e-13:
        r1z = float(params.q1(z_m)) - float(np.real(kernel.laplace(z_m)))
        if abs(r1z) < 1e-10:
            gam_m = 0.0

    E = np.exp(params.h * gam_m)
    khat0 = float(np.real(kernel.laplace(z_m)))
    k_star = float(np.real(kernel.moment2(z_m)))
    sigma_m = (2.0 + k_star * E) / (2.0 * (1.0 + params.h * E * khat0))
    return TangencySolution(gamma_m=float(gam_m), z_m=float(z_m),
                           sigma_m=float(sigma_m), k_star=k_star,
                           khat0=khat0, residual_value=r1, residual_slope=r2)


def polish_speed(kernel0: Kernel, gprime0: float, h: float, c: float,
                 lam: float):
    """Newton-polish a critical speed candidate, in at most 12 steps, on
    the 2x2 tangency system f1 = f2, f1' = f2' in the unknowns
    (c, lambda).  Returns
    (c, lambda, residual_value, residual_slope)."""
    def system(lam, c):
        L0 = float(np.real(kernel0.laplace(lam)))
        m1 = float(np.real(kernel0.moment1(lam)))
        m2 = float(np.real(kernel0.moment2(lam)))
        w = gprime0 * np.exp(-lam * c * h)
        r1 = (-lam * lam + c * lam + 1.0) - w * L0
        r2 = (-2.0 * lam + c) - w * (-c * h * L0 - m1)
        # d r1/dlam coincides with r2; remaining entries are fresh
        return (r1, r2, r2, lam - (-lam * h) * w * L0,
                -2.0 - w * (c * c * h * h * L0 + 2.0 * c * h * m1 + m2),
                1.0 - w * (lam * c * h * h * L0 + lam * h * m1 - h * L0))

    lam, c, r1, r2 = _newton2(system, lam, c, 12)
    return c, lam, r1, r2


def _require_growth(kernel0: Kernel, gprime0: float) -> None:
    """Refuse g'(0) * mass <= 1: then no front grows and no speed exists."""
    if not gprime0 * kernel0.mass > 1.0:
        raise ConfigError(
            f"g'(0) times the kernel mass must exceed 1, got "
            f"{gprime0!r} * {kernel0.mass!r}")


def _tilt_argmin(values, hi: float, what: str):
    """Grid minimum of values(lam) over a geometric grid of lam in
    [1e-12 hi, hi].

    NaN counts as +inf.  Returns the grid, the values and the index of
    their minimum; raises ConfigError naming the searched range when the
    minimum sits at either end, where the true minimiser may lie outside.
    """
    lam = np.geomspace(1e-12 * hi, hi, 1201)  # nodes 2.3% apart
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = values(lam)
    v = np.where(np.isnan(v), np.inf, v)
    j = int(np.argmin(v))
    if j in (0, lam.size - 1):
        raise ConfigError(
            f"{what}: the minimum over tilts in [{lam[0]:.6g}, {hi:.6g}] "
            "sits at an end of that range")
    return lam, v, j


def _zoom_min(values, lo: float, hi: float):
    """Refine a grid minimum of values(x) bracketed by [lo, hi].

    Samples the bracket at 601 points and moves to the bracket of their
    minimum (its two neighbours), three times over, so each pass narrows
    the bracket 300-fold.  Non-finite values count as +inf.  Returns the
    last pass's (argmin, minimum).
    """
    for _ in range(3):
        x = np.linspace(lo, hi, 601)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = values(x)
        v = np.where(np.isfinite(v), v, np.inf)
        j = int(np.argmin(v))
        lo, hi = x[max(j - 1, 0)], x[min(j + 1, x.size - 1)]
    return float(x[j]), float(v[j])


def critical_speeds(kernel0: Kernel, gprime0: float, h: float) -> SpeedPair:
    """Critical spreading speeds of the linearized invasion problem.

    For a tilt lambda the moving-frame parabola f1(z) = -z^2 + c z + 1 and
    f2(z) = g'(0) e^{-z c h} khat0_L(z) meet at z = lambda exactly when
    c = c(lambda) = tau(lambda) / lambda, where tau = c lambda is the
    Halanay root of

        tau = lambda^2 - 1 + g'(0) L(lambda) e^{-h tau}

    and L is the kernel's Laplace transform.  f1 - f2 grows with
    c lambda, so the speed at which the two touch is c_plus = min of
    c(lambda) over lambda > 0 and c_minus = max over lambda < 0.  Each
    branch takes one grid of |lambda| (halanay_root_grid) and its argmin
    seeds polish_speed, whose residuals must fall below 1e-10.

    Raises ConfigError unless g'(0) times the kernel mass exceeds 1: by
    the Halanay sign law tau(0) has the sign of g'(0) mass - 1 for every
    h, and only tau(0) > 0 sends c(lambda) to +-inf at lambda -> 0 on
    each side, so that both extrema are interior.
    """
    _require_growth(kernel0, gprime0)
    lo_lim, hi_lim = _strip_limits(kernel0)
    out = {}
    for sign, edge in ((+1, hi_lim), (-1, -lo_lim)):
        def speed(mu):
            # sign * c(sign * mu): the + branch's c, the - branch's -c
            L0 = np.real(kernel0.laplace(sign * mu))
            return halanay_root_grid(mu * mu - 1.0, gprime0 * L0, h) / mu

        mu, v, j = _tilt_argmin(
            speed, min(edge, 1e6),
            f"critical speed on the {'+' if sign > 0 else '-'} branch")
        c_fin, lam_fin, r1, r2 = polish_speed(
            kernel0, gprime0, h, sign * float(v[j]), sign * float(mu[j]))
        if not max(abs(r1), abs(r2)) <= 1e-10:  # NaN residuals fail too
            cause = "" if np.isfinite(r1 + r2) else (
                "; g'(0) (field 'gprime0' or 'birth'), field 'kernel' and "
                "field 'h' overflow a float")
            raise ConfigError(
                f"speed polish stalled on branch {sign:+d}: "
                f"residuals ({r1:.3e}, {r2:.3e}){cause}")
        out[sign] = (c_fin, lam_fin, r1, r2)
    cp, lp, rp1, rp2 = out[1]
    cm, lm, rm1, rm2 = out[-1]
    return SpeedPair(c_minus=cm, c_plus=cp, lambda_minus=lm, lambda_plus=lp,
                     residuals=(rm1, rm2, rp1, rp2))


def tune_kernel_shift(base: Kernel, gprime0: float, h: float,
                      margin: float, max_shift: float
                      ) -> tuple[Kernel, float]:
    """Shift the kernel rightward until both critical speeds are negative
    (c_plus = -margin).

    Same-sign speeds are reachable only on this side: the tilted mass
    int e^{-zx} k >= e^{-z mean} (Jensen) keeps the z < 0 branch's f2
    above f1's maximum whenever the mean is positive, so no rightward
    shift ever makes c_minus positive.  What a large shift does instead
    is drive c_plus below zero: the displaced births make even the
    trailing edge retreat, the whole growth cone moves rightward, and
    c_minus < c_plus < 0 gives the same-sign product.

    No speed is solved.  Shifting by s multiplies the transform L by
    e^{-lambda s}, and c_plus >= -m (m the margin) holds exactly when the
    Halanay root of critical_speeds satisfies tau(lambda) >= -m lambda
    for every lambda > 0, that is when
    g'(0) L(lambda) e^{-lambda s} e^{h m lambda} >= 1 - m lambda - lambda^2.
    Only 0 < lambda < lambda_max = (sqrt(m^2 + 4) - m) / 2 binds, so
    c_plus = -m at the shift

        s* = min over 0 < lambda < lambda_max of
             [log(g'(0) L(lambda)) + h m lambda
              - log(1 - m lambda - lambda^2)] / lambda,

    which tends to +inf at both ends when g'(0) times the mass exceeds 1:
    a grid argmin refined between its neighbours by _zoom_min.  Returns
    (base, 0.0) when s* <= 0 (c_plus is already at most -margin); raises
    ConfigError when s* exceeds max_shift.
    """
    _require_growth(base, gprime0)

    def shift_at(lam):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return (np.log(gprime0 * np.real(base.laplace(lam)))
                    + h * margin * lam
                    - np.log(1.0 - margin * lam - lam * lam)) / lam

    lam_max = (math.sqrt(margin * margin + 4.0) - margin) / 2.0
    lam, _, j = _tilt_argmin(shift_at,
                             min(lam_max, _strip_limits(base)[1]),
                             "kernel tuning")
    shift = _zoom_min(shift_at, lam[j - 1], lam[j + 1])[1]
    if shift <= 0.0:
        return base, 0.0
    if shift > max_shift:
        raise ConfigError(
            f"field 'max_shift': kernel tuning failed: c_plus stays above "
            f"{-margin} for shifts up to {max_shift} (needs {shift:.6g})")
    return base.shifted(shift), shift


def implicit_l(params: CharParams, pair: DecayPair, kernel: Kernel, z):
    """Mode-envelope exponent l(z): the unique real root of

        l = -z^2 + gamma0 - q1(z0) + e^{h gamma0} |khat_{z0}(z)| e^{-h l}

    where khat_{z0}(z) is the kernel transform along the vertical line
    through the tilt z0.  Vectorized over z.
    """
    z_arr = np.asarray(z, dtype=float)
    amp = np.exp(params.h * pair.gamma0) * \
        np.abs(kernel.laplace(pair.z0 + 1j * z_arr))
    base = -z_arr * z_arr + pair.gamma0 - float(params.q1(pair.z0))
    out = halanay_root_grid(base, amp, params.h)
    return float(out) if np.ndim(z) == 0 else out


def envelope_bounds(params: CharParams, pair: DecayPair, kernel: Kernel, z):
    """Sandwich for l(z): returns (lower, upper) with

        lower = -eps_h(z) z^2 + e^{gamma0 h} (|khat_{z0}(z)| - khat_{z0}(0))
        upper = alpha_h(z) = -(1/h) log(1 + h eps_h(z) z^2)

    and eps_h(z) = 1 / (1 + h |khat_{z0}(z)| e^{h gamma0}).  At h = 0 the
    upper bound degenerates to the exact heat symbol -z^2.
    """
    z_arr = np.asarray(z, dtype=float)
    Q = np.exp(params.h * pair.gamma0) * \
        np.abs(kernel.laplace(pair.z0 + 1j * z_arr))
    Q0 = np.exp(params.h * pair.gamma0) * \
        float(np.real(kernel.laplace(pair.z0)))
    eps = 1.0 / (1.0 + params.h * Q)
    zz = z_arr * z_arr
    lower = -eps * zz + (Q - Q0)
    if params.h == 0.0:
        upper = -zz
    else:
        upper = -np.log1p(params.h * eps * zz) / params.h
    if np.ndim(z) == 0:
        return float(lower), float(upper)
    return lower, upper
