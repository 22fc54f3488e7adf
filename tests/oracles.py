"""Reference implementations that the tests compare the package against.

No run of the package calls these; they stay here, beside the tests,
as independent routes to what the package computes:

- scalar_dde_solve: one Fourier mode through the spectral step;
- stepwise_delay_diag: the spectral step one step at a time, each new
  row flushed and pushed before the next step reads the ring;
- solve_linear_fd: finite differences in space and classical RK4 in time;
- comparison_run: the nonlinear run against its linear majorant, with
  the one-block recursion envelope (the comparison certificate);
- subtangential_defect: the sub-tangential property g(u) <= g'(0) u;
- local_tail_ratio and local_expansion: the Dirac-kernel envelope tail
  and the small-frequency expansion of the dispersion relation;
- gamma_h_eval: the synthesis of the fundamental solution itself;
- stored_trace_levels and stored_cone_minima: the mckean level trace and
  the spreading cone minima, read from a run's stored snapshots after
  the run instead of reduced as the solver makes each one;
- verdict_stability: an experiment rerun with the step halved and with
  the grid doubled, as a grid-convergence gate;
- multiplier: the FFT multiplier of a discretized kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from delaykpp import (CharParams, ConfigError, DiscreteKernel, Grid,
                      HistoryRing, LevelSetTrace, LinearBirth,
                      TangencySolution, Trajectory, discretize, halanay_root,
                      level_set, solve_kpp)
from delaykpp.config import Fields, kpp_inputs
from delaykpp.fundamental import SymbolTable, _synthesize, _tail_guard
from delaykpp.grids import (DEFAULT_N_H, Outputs, _history_samples,
                            step_count)
from delaykpp.kernels import Kernel
from delaykpp.linear_solver import _flush, _rk4_delay_diag, _step_weights


def multiplier(dk: DiscreteKernel) -> np.ndarray:
    """FFT-space convolution multiplier of dk: convolving a field u with
    the kernel is ifft(multiplier(dk) * fft(u))."""
    if dk.shift_cells is not None:
        k = np.fft.fftfreq(dk.n, d=1.0 / dk.n)
        return dk.mass * np.exp(-2j * np.pi * k * dk.shift_cells / dk.n)
    return np.fft.fft(dk.samples) * dk.dx


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
    for row in (*vals, *ders):  # the step reads flushed history rows
        _flush(row)
    ring = HistoryRing(h, n_h, 1, complex)
    ring.fill(vals, ders)
    n_steps = step_count(T, ring.dt)
    out = np.empty(n_steps + 1, dtype=complex)
    _rk4_delay_diag(np.asarray([mu]), np.asarray([kappa]), ring, n_steps,
                    lambda n, w: out.__setitem__(n, w[0]))
    times = np.arange(n_steps + 1) * ring.dt
    return times, out


def stepwise_delay_diag(mu, kap, ring: HistoryRing, n_steps: int,
                        collect):
    """linear_solver._rk4_delay_diag one step at a time: the same
    exponential Hermite step, with the increment summed as
    (e^z - 1) w + a0 d0 + a1 d1 + b0 e0 + b1 e1, each new w and
    derivative row flushed, and both pushed before the next step reads
    the ring.  The ring row of t = 0 takes the right derivative once step
    n_h - 1 is done, so step n_h reads the cell [0, dt] with it."""
    w = ring.newest.copy()
    em1, a0, a1, b0, b1 = _step_weights(mu, kap, ring.dt)
    right0 = _flush(mu * w + kap * ring.delayed_nodes()[0][0])
    collect(0, w)
    for n in range(n_steps):
        (d0, e0), (d1, e1) = ring.delayed_nodes()
        if n == ring.n_h:
            e0[...] = right0
        w = _flush(w + (em1 * w + a0 * d0 + a1 * d1 + b0 * e0 + b1 * e1))
        ring.push(w, _flush(mu * w + kap * d1))
        collect(n + 1, w)


def solve_linear_fd(params: CharParams, kernel: Kernel, grid: Grid, u0,
                    T: float, n_h: int | None = None) -> Trajectory:
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
    kmult = multiplier(discretize(kernel, grid))

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
    n_h = max(DEFAULT_N_H if n_h is None else n_h,
              math.ceil(params.h * stiffness / 2.5))
    dt = params.h / n_h
    out = Outputs(T, dt, None, grid.n)

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
            # derivative at the jump (see linear_solver._rk4_delay_diag)
            e0[...] = right0
        cm = cring.delayed_mid()
        k1 = apply_op(w) + c0
        k2 = apply_op(w + (0.5 * dt) * k1) + cm
        k3 = apply_op(w + (0.5 * dt) * k2) + cm
        k4 = apply_op(w + dt * k3) + c1
        w = w + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        der = apply_op(w) + c1
        cring.push(conv(w), conv(der))
        out.store(n + 1, w)
    return out.trajectory(grid, n_h)


def subtangential_defect(birth, u_max: float) -> float:
    """max over 2001 points of [0, u_max] of g(u) - g'(0) u; <= 0 for
    KPP-type birth."""
    u = np.linspace(0.0, u_max, 2001)
    return float(np.max(birth(u) - birth.gprime0 * u))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the nonlinear-vs-linear-majorant run."""

    max_violation: float  # max over outputs of max (u - v)+
    envelope_violation: float  # max over blocks of max (u - N' theta^n e^{lam x})+
    theta0: float
    theta: float
    n_prime: float
    lam: float


def comparison_run(kernel0: Kernel, birth, grid: Grid, u0, T: float,
                   h: float, lam: float, n_h: int | None = None,
                   v0=None) -> ComparisonReport:
    """Run u (nonlinear) and v (linear majorant, g -> g'(0) u) with the
    same scheme from ordered data and certify u <= v, plus the one-block
    recursion envelope on u at block boundaries t = nh:

        u(nh, x) <= N' theta^n e^{lam x},
        theta0 = 1 + h g'(0) e^{q1 h} ||k0 e^{-lam .}||_1,
        theta  = theta0 e^{q1 h},   N' = N e^{2 |q1| h} theta0,

    with q1 = 1 - lam^2 and N the exponential majorant constant of the
    history.  The constants follow the one-block Duhamel argument
    literally and are far from tight; they are the certificate itself.

    v0 defaults to u0; if supplied it must dominate u0 nodewise.
    """
    if h <= 0.0:
        raise ConfigError("comparison certificate needs h > 0")
    a, b = kernel0.domain()
    if not a < lam < b:
        raise ConfigError(
            f"tilt lam={lam} outside the kernel transform domain ({a}, {b})")
    g1 = birth.gprime0
    n_h = DEFAULT_N_H if n_h is None else int(n_h)
    hv_u, _ = _history_samples(u0, n_h, h, grid.n, float)
    defect = subtangential_defect(birth, 8.0 * max(1.0, float(np.max(hv_u))))
    if defect > 1e-12 * g1:
        raise ConfigError(
            f"birth function is not sub-tangential: max g(u) - g'(0) u = "
            f"{defect:.3e} > 0")
    if v0 is None:
        v0 = u0
    else:
        hv_v, _ = _history_samples(v0, n_h, h, grid.n, float)
        gap = float(np.max(hv_u - hv_v))
        if gap > 0.0:
            raise ConfigError(
                f"ordering of initial data violated: max(u0 - v0) = {gap:.3e}")
    out_every = n_h // 8 if n_h % 8 == 0 else 1
    run_u = solve_kpp(kernel0, birth, grid, u0, T, h, n_h, out_every)
    run_v = solve_kpp(kernel0, LinearBirth(g1), grid, v0, T, h, n_h,
                      out_every)
    max_violation = float(max(np.max(run_u.fields - run_v.fields), 0.0))

    q1 = 1.0 - lam * lam
    tilted_mass = float(np.real(kernel0.laplace(lam)))
    theta0 = 1.0 + h * g1 * math.exp(q1 * h) * tilted_mass
    theta = theta0 * math.exp(q1 * h)
    growth = np.exp(lam * grid.x)
    n_cap = float(np.max(hv_u / growth))
    n_prime = n_cap * math.exp(2.0 * abs(q1) * h) * theta0

    env_violation = 0.0
    for i, t in enumerate(run_u.times):
        blocks = t / h
        if abs(blocks - round(blocks)) > 1e-9:
            continue
        bound = n_prime * theta ** round(blocks) * growth
        env_violation = max(env_violation,
                            float(np.max(run_u.fields[i] - bound)))
    return ComparisonReport(max_violation=max_violation,
                            envelope_violation=max(env_violation, 0.0),
                            theta0=theta0, theta=theta, n_prime=n_prime,
                            lam=lam)


def local_tail_ratio(q: float, h: float, z: float, t: float) -> float:
    """Tail diagnostic for the critical local (Dirac-kernel) envelope:
    e^{l(z) t} / (q / z^2)^{t/h} with l = halanay_root(-z^2 - q, q, h).
    Tends to 1 as |z| grows."""
    if h <= 0.0:
        raise ConfigError("local_tail_ratio needs h > 0")
    if q <= 0.0:
        raise ConfigError("local_tail_ratio needs q > 0")
    l = halanay_root(-z * z - q, q, h)
    return float(np.exp(l * t) / (q / (z * z)) ** (t / h))


def local_expansion(tang: TangencySolution, params: CharParams,
                    kernel: Kernel, s: float) -> float:
    """Second-order coefficient probe of the dispersion relation.

    Solves the complex fixed-point equation

        L = -s^2 + i (2 z_m + m) s - q1(z_m) + khat_{z_m}(s) e^{-h L}

    by damped iteration seeded at -gamma_m and returns
    Re[(L + gamma_m) / s^2], which tends to -sigma_m as s -> 0.
    Raises RuntimeError when the iteration fails to contract (take a
    smaller |s|).
    """
    if s == 0.0:
        raise ConfigError("local_expansion needs s != 0")
    h, zm, gm = params.h, tang.z_m, tang.gamma_m
    khat = complex(kernel.laplace(zm + 1j * s))
    lin = -s * s + 1j * (2.0 * zm + params.m) * s - float(params.q1(zm))
    omega = 1.0 / (1.0 + h * np.exp(h * gm) * tang.khat0)
    L = complex(-gm)
    prev_step = None
    for it in range(500):
        nxt = (1.0 - omega) * L + omega * (lin + khat * np.exp(-h * L))
        step = abs(nxt - L)
        if prev_step is not None and prev_step > 0 and it > 3:
            if step / prev_step > 0.9 and step > 1e-13:
                raise RuntimeError(
                    f"dispersion iteration not contracting at s={s}; "
                    "use a smaller |s|")
        L = nxt
        if step < 1e-15 * (1.0 + abs(L)):
            break
        prev_step = step
    return float(np.real((L + gm) / (s * s)))


def gamma_h_eval(table: SymbolTable, t: float, x, return_imag: bool = False):
    """Trapezoid synthesis of Gamma_h(t, x) on the symbol grid, at the
    zero-mode neutral normalization gamma = -rho(0).

    Returns the real part; with return_imag=True also the largest relative
    imaginary remainder (nonzero for asymmetric configurations).
    """
    if t <= 0.0:
        raise ConfigError("Gamma_h is defined for t > 0 only")
    _tail_guard(table, t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = _synthesize(table, x_arr, t, np.exp((table.rho - table.rho0) * t))
    out = vals.real
    imag_frac = float(np.max(np.abs(vals.imag)) /
                      max(np.max(np.abs(out)), 1e-300))
    res = out[0] if np.ndim(x) == 0 else out
    if return_imag:
        return res, imag_frac
    return res


def stored_trace_levels(traj: Trajectory, beta: float, speeds
                        ) -> LevelSetTrace:
    """The beta-crossings of every stored snapshot of traj, scanned after
    the run, with the drift diagnostics M and M_star."""
    x = traj.grid.x
    times = traj.times
    m_minus = np.full(times.size, math.nan)
    m_plus = np.full(times.size, math.nan)
    for i in range(times.size):
        lc = level_set(traj.fields[i], x, beta)
        m_minus[i] = lc.m_minus
        m_plus[i] = lc.m_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.where(times > 0.0, np.log(times), math.nan)
        M = m_minus + speeds.c_plus * times \
            - log_t / (2.0 * speeds.lambda_plus)
        M_star = m_plus + speeds.c_minus * times \
            - log_t / (2.0 * speeds.lambda_minus)
    return LevelSetTrace(beta=beta, times=times, m_minus=m_minus,
                         m_plus=m_plus, M=M, M_star=M_star)


def stored_cone_minima(traj: Trajectory, speeds, T: float) -> list[float]:
    """min u over the cones [-w |c_minus| t, w c_plus t] of the stored
    snapshots nearest T/2 and T (np.argmin: the first on a tie), as
    [w 0.8 at T/2, 0.8 at T, 1.2 at T/2, 1.2 at T]."""
    out = []
    for widen in (0.8, 1.2):
        for t_target in (0.5 * T, T):
            i = int(np.argmin(np.abs(traj.times - t_target)))
            t = float(traj.times[i])
            sel = (traj.grid.x >= -widen * abs(speeds.c_minus) * t) & \
                (traj.grid.x <= widen * speeds.c_plus * t)
            out.append(float(np.min(traj.fields[i][sel])))
    return out


def verdict_stability(experiment, config: dict, metric_keys,
                      rtol: float = 0.05) -> dict:
    """Grid-convergence gate: rerun with the step halved and with the
    grid doubled; the verdict must not move and the named metrics must
    move by less than rtol relative."""
    f = Fields(config)
    base = experiment(kpp_inputs(config))
    refined = [
        experiment(kpp_inputs({**config,
                               "n_h": 2 * f.count("n_h", DEFAULT_N_H)})),
        experiment(kpp_inputs({**config, "n": 2 * f.count("n")})),
    ]
    moves = {}
    stable = True
    for rep in refined:
        for k in metric_keys:
            a, b = base.metrics[k], rep.metrics[k]
            move = abs(b - a) / max(abs(a), 1e-12)
            moves[k] = max(moves.get(k, 0.0), move)
            stable = stable and move < rtol
    verdicts = [base.verdict] + [r.verdict for r in refined]
    return {"verdict_stable": len(set(verdicts)) == 1,
            "metrics_stable": stable, "moves": moves,
            "verdicts": verdicts, "base": base}
