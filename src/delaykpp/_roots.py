"""Monotone transcendental root helpers shared across the package.

The recurring scalar problem is

    a(tau) = tau - re_mu - k_abs * exp(-h*tau) = 0,

with k_abs >= 0 and h >= 0.  a is strictly increasing (a' = 1 + h*k_abs*
exp(-h*tau) > 0), goes to -inf/+inf at the ends, so the root exists and is
unique.  The same equation, after sign changes of the variable, gives the
decay exponent gamma_0, the per-frequency envelope rate l(z), the
fundamental-solution symbol rho(z) and, with tau = c*lambda, the critical
speed c(lambda) = tau / lambda at which the moving-frame symbols meet at
tilt lambda (re_mu = lambda^2 - 1, k_abs = g'(0) L(lambda)), so one careful
implementation serves them all.

For h, k_abs > 0 one iteration serves every input: tau = re_mu + e^s / h,
where s solves e^s + s = u with u = log h + log k_abs - h*re_mu.  That
g(s) = e^s + s - u is convex and increasing, and s0 = log u (u > 1) or
s0 = u (otherwise) lies above its root, so Newton from s0 falls onto the
root monotonically, and in 8 steps from any finite u.  At the root e^s
equals u - s, and past s = 1 the difference is the more accurate of the
two: exp multiplies the rounding of s by s.  Four Newton steps on a(tau)
then polish the root in the original variable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["halanay_root", "halanay_root_grid"]

# exp overflows float64 just above 709; stay clear of it
_EXP_MAX = 690.0


def halanay_root_grid(re_mu, k_abs, h: float):
    """Vectorised root of tau = re_mu + k_abs*exp(-h*tau).

    Parameters
    ----------
    re_mu, k_abs : array_like
        Linear rate and delayed-term weight, broadcast together.
        k_abs must be >= 0.
    h : float
        Delay, >= 0.

    Returns
    -------
    ndarray of the unique real roots, |a(tau)| polished below ~1e-13
    on the scale of the inputs, and exactly 0 where re_mu + k_abs == 0.
    A non-finite root (u = +inf) comes without a warning; callers treat
    it as no root.
    """
    re_mu = np.asarray(re_mu, dtype=float)
    k_abs = np.asarray(k_abs, dtype=float)
    re_mu, k_abs = np.broadcast_arrays(re_mu, k_abs)
    if np.any(k_abs < 0):
        raise ValueError("k_abs must be nonnegative")
    if h < 0:
        raise ValueError("h must be nonnegative")
    tau = re_mu.astype(float).copy()
    if h == 0.0:
        return tau + k_abs

    pos = k_abs > 0.0
    if not np.any(pos):
        return tau

    rm = re_mu[pos]
    ka = k_abs[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        # log h + log k, not log(h k): the product underflows.  Below
        # -2 _EXP_MAX e^s is 0 either way; the floor keeps an overflowing
        # h re_mu (u = -inf) from turning the iteration into NaN
        u = np.maximum(np.log(h) + np.log(ka) - h * rm, -2.0 * _EXP_MAX)
        s = np.where(u > 1.0, np.log(np.maximum(u, 1.0)), u)
        for _ in range(8):
            es = np.exp(s)
            s = s - (es + s - u) / (es + 1.0)
        t = rm + np.where(s > 1.0, u - s, np.exp(s)) / h

        # polish in the original variable; at the root k*exp(-h*tau)
        # equals tau - re_mu, so the clamp only guards wayward steps
        for _ in range(4):
            e = np.exp(np.minimum(np.log(ka) - h * t, _EXP_MAX))
            t = t - (t - rm - e) / (1.0 + h * e)
    # the root is exactly 0 there, which rounding would miss
    tau[pos] = np.where(rm + ka == 0.0, 0.0, t)
    return tau


def halanay_root(re_mu: float, k_abs: float, h: float) -> float:
    """Unique real root of tau = re_mu + k_abs*exp(-h*tau)."""
    return float(halanay_root_grid(np.array([re_mu]), np.array([k_abs]), h)[0])
