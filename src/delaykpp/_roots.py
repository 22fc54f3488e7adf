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
"""

from __future__ import annotations

import numpy as np

__all__ = ["halanay_root", "halanay_root_grid"]

# exp overflows float64 just above 709; stay clear of it
_EXP_MAX = 690.0
# past this the bisection bracket re_mu + e^u is too wide to close in 90
# halvings; the w + log w = u substitution is accurate from here up
_LOG_SPACE_MIN = 40.0


def _log_space_root(u: np.ndarray) -> np.ndarray:
    """Solve w + log(w) = u for w > 0, u large.  Newton, quadratic.

    u = +inf gives NaN without a warning; callers treat a non-finite
    root as no root.
    """
    with np.errstate(invalid="ignore"):  # inf - inf at u = +inf
        w = np.maximum(u - np.log(np.maximum(u, 2.0)), 1.0)
        for _ in range(6):
            w = w - (w + np.log(w) - u) * w / (w + 1.0)
    return w


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
    on the scale of the inputs.
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
    with np.errstate(divide="ignore"):
        # tau - re_mu = w/h with w + log w = u; u may be huge, w stays tame
        u = np.log(h * ka) - h * rm

    out = np.empty_like(rm)
    big = u > _LOG_SPACE_MIN
    if np.any(big):
        out[big] = rm[big] + _log_space_root(u[big]) / h

    if np.any(~big):
        rmn, kan = rm[~big], ka[~big]
        lo = rmn.copy()
        # a(re_mu) = -k*exp(-h*re_mu) <= 0 and a(re_mu + k e^{-h re_mu}) >= 0
        hi = rmn + np.exp(np.minimum(np.log(kan) - h * rmn, _EXP_MAX))
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            a = mid - rmn - np.exp(np.minimum(np.log(kan) - h * mid, _EXP_MAX))
            take_hi = a > 0.0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        out[~big] = 0.5 * (lo + hi)

    # polish in the original variable; at the root k*exp(-h*tau) equals
    # tau - re_mu, so the clamp only guards wayward intermediate steps
    t = out
    for _ in range(4):
        e = np.exp(np.minimum(np.log(ka) - h * t, _EXP_MAX))
        t = t - (t - rm - e) / (1.0 + h * e)
    tau[pos] = t
    return tau


def halanay_root(re_mu: float, k_abs: float, h: float) -> float:
    """Unique real root of tau = re_mu + k_abs*exp(-h*tau)."""
    return float(halanay_root_grid(np.array([re_mu]), np.array([k_abs]), h)[0])
