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

For h, k_abs > 0 one Newton iteration serves every input.  With
u = log h + log k_abs - h*re_mu, the root is tau = re_mu + W_0(e^u)/h, W_0
the principal Lambert W (Corless et al., Adv. Comput. Math. 5, 1996), and
s = log W_0(e^u) solves e^s + s = u.  That g(s) = e^s + s - u is convex
and increasing, and s0 = log u (u > 1) or s0 = u (otherwise) lies above
its root, so Newton from s0 falls onto the root monotonically, and in 8
steps from any finite u.  At the root e^s = h (tau - re_mu) and
s = log h + log k_abs - h*tau, so tau can be read two ways:

    tau = (log h + log k_abs - s) / h      where s > 1,
    tau = re_mu + exp(s - log h)           otherwise.

Past s = 1 the first does not cancel: the second would add a term near
-re_mu to re_mu, losing digits of tau as |h*re_mu| grows and all of them
past about 1e16.
Below it the second is the accurate one, and exp(s - log h) stays finite
where e^s alone underflows (h = k_abs = 4.9e-272).

Envelope: against 60-digit mpmath roots the error is at most 64 ulps of
max(1, |tau|) for |re_mu| <= 1e19, k_abs in [1e-8, 1e8] and h in
[1e-3, 1e3] (tests/test_characteristic.py,
test_halanay_root_within_envelope_of_mpmath).
"""

from __future__ import annotations

import numpy as np

__all__ = ["halanay_root", "halanay_root_grid"]


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
    ndarray of the unique real roots, each from one 8-step Newton
    iteration on e^s + s = u and read in the form that does not cancel
    (module docstring), within 64 ulps of max(1, |tau|) on the stated
    envelope, and exactly 0 where re_mu + k_abs == 0.
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
    # log h + log k, not log(h k): the product underflows
    lhk = np.log(h) + np.log(k_abs[pos])
    with np.errstate(over="ignore", invalid="ignore"):
        # below -1380 e^s is 0 either way; the floor keeps an overflowing
        # h re_mu (u = -inf) from turning the iteration into NaN
        u = np.maximum(lhk - h * rm, -1380.0)
        s = np.where(u > 1.0, np.log(np.maximum(u, 1.0)), u)
        for _ in range(8):
            es = np.exp(s)
            s = s - (es + s - u) / (es + 1.0)
        t = np.where(s > 1.0, (lhk - s) / h, rm + np.exp(s - np.log(h)))
    # the root is exactly 0 there, which rounding would miss
    tau[pos] = np.where(rm + k_abs[pos] == 0.0, 0.0, t)
    return tau


def halanay_root(re_mu: float, k_abs: float, h: float) -> float:
    """Unique real root of tau = re_mu + k_abs*exp(-h*tau)."""
    return float(halanay_root_grid(np.array([re_mu]), np.array([k_abs]), h)[0])
