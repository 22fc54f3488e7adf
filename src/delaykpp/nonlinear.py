"""Integrator for the delayed non-local KPP equation

    u_t = u_xx - u + (k0 * g(u(t - h, .)))(x)

plus level-crossing tracking and the linear-majorant comparison
certificate.

The step is an exponential trapezoid rule built on the stiff linear part
c = d_xx - 1, integrated exactly, with the delayed birth term carried by
second-order phi-weights:

    u_{n+1} = P0 u_n + A F_n + B F_{n+1},
    P0 = e^{c dt},  A = dt (phi1 - phi2)(c dt),  B = dt phi2(c dt),
    F_n = k0 * g(u(t_n - h)).

Because the step divides the delay exactly, F_{n+1} reads the stored
profile u(t_{n+1} - h), so the scheme stays one-step explicit; for h = 0
an exponential predictor-corrector of the same order replaces it.

P0, A and B are mixtures of heat kernels, hence positivity- and
order-preserving.  They are applied as compactly truncated physical-space
stencils rather than per-step transforms: a global FFT would inject
roundoff of size eps * ||u|| at every point each step, and on a KPP
background any uniform seed grows exponentially, drowning the genuine
front tail long before desk-scale horizons (T ~ 200).  Local convolution
keeps arithmetic errors relative to the local solution scale, so fronts
stay clean for as long as the domain holds them.

The kernel's stencil keeps just the offsets between its first and last
tap above _STENCIL_DROP of its peak, applied off-centre, so a shifted
kernel pays for its own support and not for a window symmetric about 0.

Underflow floor.  Truncated stencils grow tails out of compact data that
run down through the subnormal range (below 2.2e-308), where x86
arithmetic takes a slow path: every convolution touching such a tail
slows down about twofold.  The initial data and every new profile, before
it is stored or pushed, therefore have each entry with |u| < _UNDERFLOW
set to exactly 0.  The floor is absolute: u -> u [|u| >= theta] is
nondecreasing, so the step stays order-preserving and the comparison
certificate (u <= v from ordered data) survives; a floor relative to each
run's own peak would cut the larger run's tail first and break it.  It
only removes mass and never injects any, so errors stay local to the
solution scale, and zero stays zero.  theta = 1e-250 is sized so that the
products stay normal: kernel taps are at least _STENCIL_DROP of the
kernel's peak (about 1e-20 on the preset grids) and the ETD taps at the
window edges about 1e-36, and a floored value reaches the next floored
one through at most two stencils (the kernel, then A or B; for h = 0 the
predictor is floored too), so no product falls below
theta * 1e-56 ~ 1e-306.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .birth import LinearBirth, subtangential_defect
from .errors import ConfigError
from .grids import Field, Grid, HistoryRing, Outputs, warn_edge
from .kernels import Kernel, discretize
from .linear_solver import _history_samples, _profile

__all__ = ["KPPTrajectory", "solve_kpp", "level_set", "LevelCrossings",
           "LevelSetTrace", "trace_levels", "comparison_run",
           "ComparisonReport"]

_CLAMP_REL = 1e-13  # negatives below this fraction of the peak count as real
_STENCIL_DROP = 1e-19  # truncate propagator stencils below this, rel. peak
_UNDERFLOW = 1e-250  # absolute: |u| below this is set to 0 (module docstring)


@dataclass(frozen=True)
class KPPTrajectory:
    """Physical-space snapshots of a nonlinear run."""

    grid: Grid
    times: np.ndarray
    fields: np.ndarray  # (n_out, N) real
    n_h: int
    clamp_count: int  # delayed-profile entries clamped to 0 before g
    edge_fraction: float
    final_history: tuple | None = None  # (values, derivatives) to resume

    def snapshot(self, i: int) -> Field:
        return Field(values=self.fields[i], time=float(self.times[i]))


def _phi_dc(dt: float):
    """Exact zero-frequency weights of the step.  ab is computed as the
    float complement of p0 and b as the complement of a, so the three
    weights sum to 1.0 exactly and constant equilibria are fixed points
    of the discrete step to the last bit."""
    p0 = math.exp(-dt)
    ab = 1.0 - p0  # dt phi1(-dt)
    z = -dt
    a = dt * (math.expm1(z) / z - (math.expm1(z) - z) / (z * z))
    b = ab - a
    return p0, a, b, ab


def _etd_stencils(dt: float, dx: float, n: int):
    """Physical-space taps of the three propagator weights.

    P0 = e^{(d_xx - 1) dt} is e^{-dt} times a heat kernel of variance
    2 dt; the F-weights are the one-step mixtures

        A(x) = (1/dt) int_0^dt e^{-r} G_{2r}(x) r dr,
        B(x) = int_0^dt e^{-r} G_{2r}(x) (1 - r/dt) dr,

    integrated by Gauss-Legendre in q = sqrt(r) (the substitution removes
    the endpoint singularity of G).  Building the taps directly keeps
    every one positive even when sqrt(2 dt) < dx; a transform-based
    construction rings in that regime and clipping the lobes biases the
    operator without bound as dt shrinks.  Tap sums are renormalized to
    the exact zero-frequency weights.

    A positive stencil cannot match the heat symbol once dt << dx^2 (the
    discrete symbol is 2 pi / dx periodic, the target is not flat at the
    edge), so sampling error grows if dt is refined far below dx^2; keep
    dt >= dx^2 / 3 or refine the grid along with the step."""
    half = int(math.ceil(
        math.sqrt(-4.0 * dt * math.log(_STENCIL_DROP)) / dx)) + 2
    half = min(max(half, 1), n // 2 - 1)
    xs = dx * np.arange(-half, half + 1)
    p0_dc, a_dc, b_dc, ab_dc = _phi_dc(dt)

    p0 = np.exp(-xs * xs / (4.0 * dt))
    p0 *= p0_dc / np.sum(p0)

    q, w = np.polynomial.legendre.leggauss(96)
    q = 0.5 * math.sqrt(dt) * (q + 1.0)  # interior nodes of (0, sqrt(dt))
    w = 0.5 * math.sqrt(dt) * w
    core = np.exp(-q[:, None] ** 2 - xs[None, :] ** 2
                  / (4.0 * q[:, None] ** 2))
    a = (w * q * q) @ core
    b = (w * (dt - q * q)) @ core
    ab = w @ core
    a *= a_dc / np.sum(a)
    b *= b_dc / np.sum(b)
    ab *= ab_dc / np.sum(ab)
    return p0, a, b, ab


def _kernel_applier(kernel0: Kernel, grid: Grid):
    """Return G -> k0 * G as a local operation: an exact index roll for
    grid-aligned point masses, a truncated sampled stencil otherwise, and
    zero for a kernel whose samples all vanish.

    The stencil holds exactly the offsets lo..hi between the first and the
    last sample above _STENCIL_DROP of the peak, clipped at 0 and
    renormalized to the kernel's mass, and is applied off-centre through
    the origin of convolve1d; a shifted kernel thus pays only for its own
    support.  convolve1d needs the window to contain offset 0, so a kernel
    lying wholly on one side is padded towards 0 with exact zeros."""
    dk = discretize(kernel0, grid)
    if dk.shift_cells is not None:
        c, w = dk.shift_cells % grid.n, dk.mass
        return lambda G: w * np.roll(G, c)
    n = grid.n
    kern = np.roll(dk.samples * grid.dx, n // 2)  # index n // 2 is offset 0
    peak = float(np.max(np.abs(kern)))
    if peak == 0.0:
        return np.zeros_like
    keep = np.flatnonzero(np.abs(kern) > _STENCIL_DROP * peak) - n // 2
    lo, hi = int(keep[0]), int(keep[-1])
    taps = np.clip(kern[n // 2 + lo:n // 2 + hi + 1], 0.0, None)
    total = float(np.sum(dk.samples) * grid.dx)
    taps *= total / float(np.sum(taps))
    stencil = np.pad(taps, (max(lo, 0), max(-hi, 0)))
    # at origin 0, convolve1d puts offset 0 on tap m // 2 of m taps; the
    # origin moves it to tap -min(lo, 0)
    origin = -((min(lo, 0) + max(hi, 0) + 1) // 2)
    return lambda G: convolve1d(G, stencil, mode="wrap", origin=origin)


def _floor(v: np.ndarray) -> np.ndarray:
    """Set every entry of v of magnitude below _UNDERFLOW to exactly 0, in
    place, and return v; NaN and inf stay, so a blow-up still shows."""
    # row by row: a temporary the size of a whole history would raise the
    # run's peak memory
    for row in np.atleast_2d(v):
        row[np.abs(row) < _UNDERFLOW] = 0.0
    return v


def _clamped_birth(birth, v, counter):
    neg = v < 0.0
    if np.any(neg):
        tol = _CLAMP_REL * max(1.0, float(np.max(np.abs(v))))
        counter[0] += int(np.count_nonzero(v < -tol))
        v = np.where(neg, 0.0, v)
    return birth(v)


def solve_kpp(kernel0: Kernel, birth, grid: Grid, u0, T: float, h: float,
              n_h: int | None = None, out_every: int | None = None,
              return_history: bool = False) -> KPPTrajectory:
    """Solve the delayed non-local KPP equation on the periodic grid.

    u0: constant profile, callable s -> profile on [-h, 0], or a
    (values, derivatives) history pair (derivatives are ignored here).

    Negative delayed values (roundoff undershoots or deliberately signed
    data) are clamped to 0 before entering g; clamps beyond roundoff size
    are counted in the trajectory.  Aborts with the last healthy time if
    the solution loses finiteness.  With return_history the trajectory
    carries the final delay window, so a follow-up run can resume exactly.
    Snapshots follow the grids.Outputs schedule (out_every=None keeps
    about 400), which also warns when the solution reaches the periodic
    edge.
    """
    if T <= 0.0:
        raise ConfigError(f"final time must be positive, got {T}")
    if h < 0.0:
        raise ConfigError(f"delay must be nonnegative, got {h}")
    n_h = 64 if n_h is None else int(n_h)
    if n_h < 1:
        raise ConfigError(f"n_h must be >= 1, got {n_h}")
    dt = h / n_h if h > 0.0 else min(1.0 / 64.0, T / 64.0)
    out = Outputs(T, dt, out_every, grid.n)

    st_p0, st_a, st_b, st_ab = _etd_stencils(dt, grid.dx, grid.n)
    kconv = _kernel_applier(kernel0, grid)
    counter = [0]

    def wrap(field, stencil):
        return convolve1d(field, stencil, mode="wrap")

    if h > 0.0:
        ring = HistoryRing(h, n_h, grid.n, float)
        hv, _ = _history_samples(u0, n_h, h, grid.n, float)
        _floor(hv)
        ring.fill(hv, np.zeros_like(hv))
        u = hv[-1].copy()
        (v0, _), _ = ring.delayed_nodes()
        F_prev = kconv(_clamped_birth(birth, v0, counter))
    else:
        u = _floor(np.array(_profile(u0, grid.n)))  # a copy, not u0 itself
        ring = None
        F_prev = None

    no_der = np.zeros(grid.n)
    rows = out.rows
    last_healthy = 0.0
    out.store(0, u)

    for n in range(out.n_steps):
        if ring is not None:
            _, (v1, _) = ring.delayed_nodes()
            F_next = kconv(_clamped_birth(birth, v1, counter))
            u = _floor(wrap(u, st_p0) + wrap(F_prev, st_a)
                       + wrap(F_next, st_b))
            ring.push(u, no_der)
            F_prev = F_next
        else:
            F0 = kconv(_clamped_birth(birth, u, counter))
            u_star = _floor(wrap(u, st_p0) + wrap(F0, st_ab))
            F1 = kconv(_clamped_birth(birth, u_star, counter))
            u = _floor(wrap(u, st_p0) + wrap(F0, st_a) + wrap(F1, st_b))
        i = rows.get(n + 1)
        if i is not None:
            if not np.all(np.isfinite(u)):
                raise RuntimeError(
                    f"solution lost finiteness near t={(n + 1) * dt:.6g}; "
                    f"last healthy output at t={last_healthy:.6g}")
            out.store(i, u)
            last_healthy = (n + 1) * dt

    history = ring.window() if (return_history and ring is not None) else None
    return KPPTrajectory(grid=grid, times=out.times, fields=out.fields,
                         n_h=n_h, clamp_count=counter[0],
                         edge_fraction=warn_edge(out.edge),
                         final_history=history)


@dataclass(frozen=True)
class LevelCrossings:
    """Leftmost and rightmost crossings of a level; NaN when the level is
    not attained on the relevant side (the explicit stand-in for the
    empty-set convention that would otherwise return 0)."""

    m_minus: float
    m_plus: float

    @property
    def attained_minus(self) -> bool:
        return math.isfinite(self.m_minus)

    @property
    def attained_plus(self) -> bool:
        return math.isfinite(self.m_plus)


def level_set(values: np.ndarray, x: np.ndarray, beta: float
              ) -> LevelCrossings:
    """Leftmost (m_minus) and rightmost (m_plus) abscissae where the
    profile crosses the level beta, by sign-change scan and linear
    interpolation.

    A side reports NaN when no crossing exists there, or when the profile
    is still above beta at that boundary (the true crossing lies outside
    the window)."""
    if beta <= 0.0:
        raise ConfigError(f"level must be positive, got {beta}")
    d = np.asarray(values, dtype=float) - beta
    x = np.asarray(x, dtype=float)
    above = np.flatnonzero(d >= 0.0)

    m_minus = m_plus = math.nan
    if above.size:
        i = above[0]
        if i > 0:  # d[i-1] < 0 <= d[i]
            frac = d[i - 1] / (d[i - 1] - d[i])
            m_minus = float(x[i - 1] + frac * (x[i] - x[i - 1]))
        j = above[-1]
        if j < d.size - 1:  # d[j] >= 0 > d[j+1]
            frac = d[j] / (d[j] - d[j + 1])
            m_plus = float(x[j] + frac * (x[j + 1] - x[j]))
    return LevelCrossings(m_minus=m_minus, m_plus=m_plus)


@dataclass(frozen=True)
class LevelSetTrace:
    """Time series of the two beta-crossings with drift diagnostics.

    M(t) = m_minus(t) + c_plus t - log(t)/(2 lambda_plus) is the
    left-front drift residual: the spreading theorem says it stays
    bounded below.  M_star is the mirrored check on m_plus with the
    leftward branch constants, bounded above.  Entries are NaN where the
    level is not attained (and at t = 0 for the log terms).
    """

    beta: float
    times: np.ndarray
    m_minus: np.ndarray
    m_plus: np.ndarray
    M: np.ndarray
    M_star: np.ndarray


def trace_levels(traj: KPPTrajectory, beta: float, speeds) -> LevelSetTrace:
    """Scan every stored snapshot for its beta-crossings and attach the
    drift diagnostics built from the critical speeds."""
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
    n_h = 64 if n_h is None else int(n_h)
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
