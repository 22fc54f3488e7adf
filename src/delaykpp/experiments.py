"""Packaged end-to-end front studies with machine-checkable verdicts.

Each experiment takes typed inputs, never a config: the tuple
(kernel, birth, grid, h, n_h, T, beta, u0) of a KPP run, with u0 the
initial profile x -> u0(x), and its own options as keyword parameters
whose defaults are those of the config fields of the same names.  The
CLI reads all of them from the config before it calls the experiment.
The experiment runs the trajectories it needs and returns an
ExperimentReport, which the CLI writes out with the config and the
experiment's name.  Verdicts are honest finite-horizon proxies for
asymptotic statements; each docstring states the proxy exactly.
"Bounded below" for a drift diagnostic means: its minimum over the last
half of the window is no smaller than the minimum over the first half
minus 2 dx.

Experiments are deterministic given their inputs; there is no randomness
to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import (CharParams, critical_speeds, tangency_solve,
                             tune_kernel_shift)
from .config import default_out_every
from .errors import ConfigError
from .kernels import Kernel
from .linear_solver import solve_linear
from .nonlinear import LevelScan, LevelSetTrace, solve_kpp, trace_levels

__all__ = ["ExperimentReport", "mckean_experiment", "logdrift_fit",
           "extinction_experiment", "spreading_experiment", "bridge_check"]


@dataclass(frozen=True)
class ExperimentReport:
    """Verdict object shared by every experiment.

    verdict is "pass", "fail" or "inconclusive", or "diagnostic" for a
    report that carries numbers without a verdict; metrics carries the
    numbers the verdict was computed from, so a report is auditable
    without rerunning.
    """

    metrics: dict
    verdict: str
    trace: LevelSetTrace | None = None


def _half_window_stats(times, values, fn):
    """fn (min or max) of the attained values over each half of the
    window; NaN-valued entries are excluded.  Returns (first, second,
    count_first, count_second)."""
    t_mid = 0.5 * (times[0] + times[-1])
    first = values[(times <= t_mid) & np.isfinite(values)]
    second = values[(times > t_mid) & np.isfinite(values)]
    f = float(fn(first)) if first.size else math.nan
    s = float(fn(second)) if second.size else math.nan
    return f, s, int(first.size), int(second.size)


def logdrift_fit(trace: LevelSetTrace, speeds) -> dict:
    """Least-squares fit of m_minus(t) + c_plus t against a + b log t over
    [T/4, T].

    Diagnostic only: the coefficient b is reported with its standard
    error and the intercept a next to the two reference slopes
    1/(2 lambda_plus) and 3/(2 lambda_plus), with no pass/fail attached
    (which slope the delayed equation follows is open).  Refuses
    (ConfigError) with fewer than 20 attained samples in the fit window:
    a fit through too few points would dress noise up as a slope.
    """
    T = float(trace.times[-1])
    mask = (trace.times >= 0.25 * T) & np.isfinite(trace.m_minus) \
        & (trace.times > 0.0)
    t = trace.times[mask]
    if t.size < 20:
        raise ConfigError(
            f"log-drift fit refused: {t.size} attained samples in "
            f"[T/4, T], need at least 20")
    y = trace.m_minus[mask] + speeds.c_plus * t
    X = np.column_stack([np.ones_like(t), np.log(t)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(t.size - 2, 1)
    cov = float(np.sum(resid ** 2)) / dof * np.linalg.inv(X.T @ X)
    lam = speeds.lambda_plus
    return {"coefficient": float(coef[1]),
            "stderr": float(math.sqrt(cov[1, 1])),
            "intercept": float(coef[0]), "n_samples": int(t.size),
            "ref_half": 1.0 / (2.0 * lam),
            "ref_three_half": 3.0 / (2.0 * lam)}


def mckean_experiment(inputs: tuple, out_every: int | None = None
                      ) -> ExperimentReport:
    """Drift-residual check on the two front edges.

    Runs the nonlinear equation from a compact bump in one pass that
    reduces each kept snapshot to its beta-crossings as the solver makes
    it (a LevelScan passed as collect), so no snapshot is stored; then
    forms M(t) = m_minus + c_plus t - log(t)/(2 lambda_plus) and its
    mirror M_star from the crossings.  Verdict "pass" when
    M is bounded below and M_star bounded above in the half-window sense
    (slack 2 dx); "inconclusive" when either side attains the level
    fewer than 4 times in some half.  The empirical offset constants
    (min of M, max of M_star) are reported, never asserted, and so is
    logdrift_fit of the same trace (its refusal message when the trace
    has too few samples for it).  out_every None keeps a snapshot every
    quarter delay (default_out_every).
    """
    kernel0, birth, grid, h, n_h, T, beta, u0 = inputs
    speeds = critical_speeds(kernel0, birth.gprime0, h)
    scan = LevelScan(grid.x, beta)
    traj = solve_kpp(kernel0, birth, grid, u0(grid.x), T, h, n_h,
                     out_every or default_out_every(n_h), collect=scan)
    trace = trace_levels(scan, speeds)

    slack = 2.0 * grid.dx
    pos = trace.times > 0.0
    m_first, m_last, c_f, c_l = _half_window_stats(
        trace.times[pos], trace.M[pos], np.min)
    s_first, s_last, d_f, d_l = _half_window_stats(
        trace.times[pos], trace.M_star[pos], np.max)
    bounded_below = m_last >= m_first - slack
    bounded_above = s_last <= s_first + slack

    both = np.isfinite(trace.M) & np.isfinite(trace.M_star)
    mirror_gap = float(np.max(np.abs(trace.M[both] + trace.M_star[both]))) \
        if np.any(both) else math.nan

    if min(c_f, c_l, d_f, d_l) < 4:
        verdict = "inconclusive"
    elif bounded_below and bounded_above:
        verdict = "pass"
    else:
        verdict = "fail"
    metrics = {
        "c_plus": speeds.c_plus, "lambda_plus": speeds.lambda_plus,
        "c_minus": speeds.c_minus, "lambda_minus": speeds.lambda_minus,
        "beta": beta, "slack": slack,
        "M_min_first_half": m_first, "M_min_last_half": m_last,
        "M_star_max_first_half": s_first, "M_star_max_last_half": s_last,
        "bounded_below": bool(bounded_below),
        "bounded_above": bool(bounded_above),
        "B_empirical": float(np.nanmin(trace.M[pos])) if c_f + c_l else
        math.nan,
        "mirror_gap": mirror_gap,
        "attained_counts": [c_f, c_l, d_f, d_l],
        "clamp_count": traj.clamp_count,
        "edge_fraction": traj.edge_fraction,
    }
    try:
        metrics["logdrift"] = logdrift_fit(trace, speeds)
    except ConfigError as exc:
        metrics["logdrift"] = str(exc)
    return ExperimentReport(metrics, verdict, trace)


def extinction_experiment(inputs: tuple, tune: bool = True,
                          tune_margin: float = 0.5, max_shift: float = 32.0,
                          window_halfwidth: float = 20.0,
                          probe_x: float = 0.0) -> ExperimentReport:
    """Same-sign-speeds run from a compact bump.

    The kernel is shifted (by tune_kernel_shift; with tune false it is
    used as given) until c_plus < 0, so both edge speeds share a sign
    and the population packet travels rightward while every fixed point
    is left behind.  The run reaches T in one pass and reduces each
    snapshot to its sups as the solver makes it, so no snapshot is
    stored.  Verdict "pass" requires sup_x u(T) < 1e-3 kappa and an
    eventually-decreasing sup; the one-sided decay bound
    sup_{z <= -ct} u <= C e^{lambda_plus (c_plus - c) t} with
    c = c_plus + 0.2 is calibrated on the first quarter of the window and
    checked on the rest (factor-2 slack), and reported alongside.

    On the whole line the grid sup cannot pass that verdict: the packet
    saturates at kappa and travels, and the extinction statement is
    pointwise.  The report therefore also carries the desk analogues of
    the pointwise claim: ray_sup_final (sup over z <= -ct at the
    horizon, the theorem's own limit quantity), window_sup_final (sup
    over a fixed |x| <= window_halfwidth) and probe_u_final (u at a
    fixed probe_x, which must lie on the grid [-L/2, L/2)).  The default
    tune_margin 0.5 puts the trailing edge deep enough into retreat that
    these decay within desk horizons.
    Persistence in the symmetric case is the spreading experiment's cone
    minimum.
    """
    kernel0, birth, grid, h, n_h, T, beta, u0 = inputs
    if h <= 0.0:
        raise ConfigError("field 'h': the extinction run needs a delay h > 0")
    if not -0.5 * grid.length <= probe_x < 0.5 * grid.length:
        raise ConfigError(
            f"field 'probe_x' = {probe_x:g} lies outside the grid "
            f"[{-0.5 * grid.length:g}, {0.5 * grid.length:g})")
    if tune:
        kernel0, shift = tune_kernel_shift(
            kernel0, birth.gprime0, h, margin=tune_margin,
            max_shift=max_shift)
    else:
        shift = 0.0
    speeds = critical_speeds(kernel0, birth.gprime0, h)
    kappa = birth.kappa

    sup_t, sup_v = [], []
    left_t, left_v = [], []  # sup over z <= -c t, c = c_plus + 0.2
    c_ray = speeds.c_plus + 0.2
    final_field = None

    def observe(t, u):
        nonlocal final_field
        sup_t.append(t)
        sup_v.append(float(np.max(u)))
        sel = grid.x <= -c_ray * t
        if t > 0.0 and np.any(sel):
            left_t.append(t)
            left_v.append(float(np.max(u[sel])))
        final_field = u

    traj = solve_kpp(kernel0, birth, grid, u0(grid.x), T, h, n_h,
                     default_out_every(n_h), collect=observe)
    sup_t = np.array(sup_t)
    sup_v = np.array(sup_v)

    tail = sup_v[sup_t > 0.5 * sup_t[-1]]
    monotone_tail = bool(np.all(np.diff(tail) <= 1e-9 * kappa)) \
        if tail.size > 2 else False
    sup_final = float(sup_v[-1])
    extinct = sup_final < 1e-3 * kappa

    left_t = np.array(left_t)
    left_v = np.array(left_v)
    # decay of the edge majorant e^{lam(z + c_plus t)} along z = -c_ray t
    rate = speeds.lambda_plus * (speeds.c_plus - c_ray)
    bound_c = math.nan
    bound_ratio = math.nan
    bound_holds = False
    cal = left_t <= 0.25 * sup_t[-1]
    if np.any(cal) and np.any(~cal):
        bound_c = float(np.max(left_v[cal] * np.exp(-rate * left_t[cal])))
        if bound_c > 0.0:
            bound_ratio = float(np.max(
                left_v[~cal] / (bound_c * np.exp(rate * left_t[~cal]))))
            bound_holds = bound_ratio <= 2.0

    probe_u_final = float(final_field[np.argmin(np.abs(grid.x - probe_x))])
    wsel = np.abs(grid.x) <= window_halfwidth
    window_sup_final = float(np.max(final_field[wsel])) \
        if np.any(wsel) else math.nan
    ray_sup_final = float(left_v[-1]) if left_v.size else math.nan

    verdict = "pass" if (extinct and monotone_tail) else "fail"
    metrics = {
        "shift": shift, "c_plus": speeds.c_plus, "c_minus": speeds.c_minus,
        "speed_product": speeds.c_plus * speeds.c_minus,
        "sup_initial": float(sup_v[0]), "sup_final": sup_final,
        "sup_threshold": 1e-3 * kappa,
        "monotone_decreasing_tail": monotone_tail,
        "one_sided_C": bound_c, "one_sided_ratio": bound_ratio,
        "one_sided_bound_holds": bool(bound_holds),
        "ray_sup_final": ray_sup_final,
        "window_sup_final": window_sup_final,
        "probe_u_final": probe_u_final,
        "horizon": float(sup_t[-1]),
        "clamp_count": traj.clamp_count,
        "edge_fraction": traj.edge_fraction,
    }
    return ExperimentReport(metrics, verdict)


def spreading_experiment(inputs: tuple) -> ExperimentReport:
    """Interior-cone lower bound for the symmetric (two-sided) case.

    Reports the minimum of u over the shrunken cone
    [-0.8 |c_minus| t, 0.8 c_plus t] at t = T/2 and t = T; verdict "pass"
    when both minima stay above 1e-3 kappa (the reported eps0_hat is the
    smaller of the two).  A widened cone (factor 1.2) minimum is reported
    as the contrapositive control: outside the critical cone the solution
    collapses toward 0.  The run takes one pass and keeps, as they
    arrive, only the snapshot nearest T/2 and the one nearest T (the
    earlier one on a tie); no other snapshot is stored.  The run is
    refused (field 'L') unless the longer end of the cone at T, plus 5,
    stays inside L/2, so that neither front wraps around the seam.
    """
    kernel0, birth, grid, h, n_h, T, beta, u0 = inputs
    speeds = critical_speeds(kernel0, birth.gprime0, h)
    reach = 0.8 * max(abs(speeds.c_minus), abs(speeds.c_plus)) * T + 5.0
    if reach > 0.5 * grid.length:
        raise ConfigError(
            f"field 'L': domain too small for the spreading cone at "
            f"T = {T:g}: need L/2 > {reach:.1f}")
    out_every = n_h if T >= 2.0 * h else 1
    nearest = {}  # target time -> (t, u) of the nearest snapshot so far

    def keep_nearest(t, u):
        for target in (0.5 * T, T):
            best = nearest.get(target)
            if best is None or abs(t - target) < abs(best[0] - target):
                nearest[target] = (t, u)

    traj = solve_kpp(kernel0, birth, grid, u0(grid.x), T, h, n_h, out_every,
                     collect=keep_nearest)

    def cone_min(t_target: float, widen: float) -> float:
        t, u = nearest[t_target]
        lo = -widen * abs(speeds.c_minus) * t
        hi = widen * speeds.c_plus * t
        sel = (grid.x >= lo) & (grid.x <= hi)
        return float(np.min(u[sel]))

    m_half = cone_min(0.5 * T, 0.8)
    m_full = cone_min(T, 0.8)
    eps0_hat = min(m_half, m_full)
    wide_half = cone_min(0.5 * T, 1.2)
    wide_full = cone_min(T, 1.2)
    kappa = birth.kappa
    verdict = "pass" if eps0_hat > 1e-3 * kappa else "fail"
    metrics = {
        "c_plus": speeds.c_plus, "c_minus": speeds.c_minus,
        "eps0_hat": eps0_hat, "min_at_half_T": m_half, "min_at_T": m_full,
        "widened_min_at_half_T": wide_half, "widened_min_at_T": wide_full,
        "kappa": kappa, "clamp_count": traj.clamp_count,
        "edge_fraction": traj.edge_fraction,
    }
    return ExperimentReport(metrics, verdict)


def _frame_tangencies(kernel0: Kernel, gprime0: float, h: float, speeds):
    """(branch, lambda, tangency) of the linearized equation in the frame
    moving at each critical speed c, w(t,z) = u(t, z - c t): drift -c,
    growth -1, kernel g'(0) k0(x - ch); branch is "plus", then "minus".

    Its tangency sits exactly at (gamma_m, z_m) = (0, lambda) when
    (c, lambda) is a critical pair: the two tangency residuals reduce to
    the dispersion identities f1 = f2 and f1' = f2' defining the pair.
    Tilting the unknown by e^{-lam z} shifts the tangency tilt to 0 and
    yields the equivalent equation with drift 2 lam - c and growth
    lam^2 - c lam - 1 used for the inequality run below.
    """
    for branch, lam, c in (("plus", speeds.lambda_plus, speeds.c_plus),
                           ("minus", speeds.lambda_minus, speeds.c_minus)):
        params = CharParams(m=-c, p=-1.0, h=h)
        kern = kernel0.shifted(c * h).scaled(gprime0)
        yield branch, lam, tangency_solve(params, kern)


def _tilted_frame_equation(kernel0: Kernel, gprime0: float, h: float,
                           lam: float, c: float):
    """e^{-lam z}-tilted frame equation of _frame_tangencies; the object
    v with u(t, z - c t) <= e^{lam z} v(t, z)."""
    params = CharParams(m=2.0 * lam - c, p=lam * lam - c * lam - 1.0, h=h)
    kern = kernel0.shifted(c * h).tilted(lam).scaled(gprime0)
    return params, kern


def bridge_check(inputs: tuple) -> ExperimentReport:
    """Front-edge bridge between the nonlinear run and the tangency frame.

    For each critical branch the constructed linear equation must have
    its tangency exactly at gamma_m = 0, z_m = lambda (residuals < 1e-8):
    the traveling edge is the tangency configuration seen in the frame
    moving at the critical speed.  The moving-frame inequality
    u(t, z - c_plus t) <= e^{lambda_plus z} v(t, z) is then checked
    numerically against a linear solve of the constructed equation, a
    deliberate cross-integrator check (stencil ETD for u, spectral
    collocation for v).  Each u snapshot is compared with the v snapshot
    nearest in time; both runs take the same n_h and store every
    n_h-th step, so the times agree exactly.  Needs h > 0: at h = 0 the
    linear solver samples fixed times that the KPP snapshots do not share.
    """
    kernel0, birth, grid, h, n_h, T, beta, u0 = inputs
    if h == 0.0:
        raise ConfigError("field 'h': the bridge check needs a delay h > 0")
    g1 = birth.gprime0
    speeds = critical_speeds(kernel0, g1, h)

    metrics = {"c_plus": speeds.c_plus, "lambda_plus": speeds.lambda_plus,
               "c_minus": speeds.c_minus,
               "lambda_minus": speeds.lambda_minus}
    tang_ok = True
    for branch, lam, tang in _frame_tangencies(kernel0, g1, h, speeds):
        r_gamma = abs(tang.gamma_m)
        r_z = abs(tang.z_m - lam)
        metrics[f"tangency_gamma_residual_{branch}"] = r_gamma
        metrics[f"tangency_z_residual_{branch}"] = r_z
        tang_ok = tang_ok and r_gamma < 1e-8 and r_z < 1e-8

    lam, c = speeds.lambda_plus, speeds.c_plus
    params, kern = _tilted_frame_equation(kernel0, g1, h, lam, c)
    x = grid.x
    traj_u = solve_kpp(kernel0, birth, grid, u0(x), T, h, n_h, n_h)

    def v_history(s: float) -> np.ndarray:
        # v(s, z) = e^{-lam z} u0(z - c s) for the constant history u0,
        # in closed form: interpolated samples would be piecewise linear in
        # s and cost the step its order
        y = (x - c * s + 0.5 * grid.length) % grid.length - 0.5 * grid.length
        return np.exp(-lam * x) * u0(y)

    traj_v = solve_linear(params, kern, grid, v_history, T, n_h, n_h)
    viol = 0.0
    scale = 0.0
    # compare on the front-active window only: to the right of it the
    # factor e^{lam z} amplifies the linear solver's roundoff floor above
    # the tolerance while both true sides are 0
    w_right = min(c * T + 12.0, 0.5 * grid.length - 1.0)
    for i, t in enumerate(traj_u.times):
        j = int(np.argmin(np.abs(traj_v.times - t)))
        zq = x + c * float(t)
        sel = (zq >= -12.0) & (zq <= w_right)
        v_at = np.interp(zq[sel], x, np.real(traj_v.fields[j]),
                         period=grid.length)
        rhs = np.exp(lam * zq[sel]) * v_at
        viol = max(viol, float(np.max(traj_u.fields[i][sel] - rhs)))
        scale = max(scale, float(np.max(np.abs(rhs))))
    frame_ok = viol <= 1e-8 * scale
    metrics.update({"frame_violation": viol, "frame_scale": scale,
                    "frame_ok": bool(frame_ok)})
    verdict = "pass" if (tang_ok and frame_ok) else "fail"
    return ExperimentReport(metrics, verdict)
