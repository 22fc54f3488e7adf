"""Integrator for the delayed non-local KPP equation

    u_t = u_xx - u + (k0 * g(u(t - h, .)))(x)

plus level-crossing tracking.  Every kept snapshot goes to the run's
collect, and the solver keeps none.  A LevelScan passed as collect
reduces each one to its beta-crossings as the solver makes it;
trace_levels then forms the drift diagnostics from the crossings
alone.

The step is an exponential trapezoid rule built on the stiff linear part
c = d_xx - 1, integrated exactly, with the delayed birth term carried by
second-order phi-weights:

    u_{n+1} = P0 u_n + A F_n + B F_{n+1},
    P0 = e^{c dt},  A = dt (phi1 - phi2)(c dt),  B = dt phi2(c dt),
    F_n = k0 * g(u(t_n - h)).

solve_kpp writes this update once.  Because the step divides the delay
exactly, F_{n+1} reads the stored profile u(t_{n+1} - h) from the
HistoryRing, so the scheme stays one-step explicit.  The step reads that
profile only through g, at the ring's nodes, so the ring holds values
only: one delay of n_h + 1 profiles and no derivative rows.  At h = 0
there is no ring, and F_{n+1} reads the exponential-Euler predictor
floor(P0 u_n + (A + B) F_n) instead, which keeps the same order.  The
new profile is summed in place into the fresh array that P0 u_n is,
u = P0 u_n; u += A F_n; u += B F_{n+1}, which rounds as
(P0 u_n + A F_n) + B F_{n+1} does and allocates no further temporary.

P0, A and B are mixtures of heat kernels, hence positivity- and
order-preserving.  They are applied as compactly truncated physical-space
stencils rather than per-step transforms: a global FFT would inject
roundoff of size eps * ||u|| at every point each step, and on a KPP
background any uniform seed grows exponentially, drowning the genuine
front tail long before desk-scale horizons (T ~ 200).  Local convolution
keeps arithmetic errors relative to the local solution scale, so fronts
stay clean for as long as the domain holds them.

convolve1d applies a stencil of m taps as a banded block product, so that
BLAS does the multiply-adds: the field is gathered into overlapping rows
of b + m - 1 points, with b a fixed power of two >= max(32, m), and each
row is multiplied by the (b + m - 1) x b Toeplitz band of the taps.  Every
output is still the sum of the same m local products, plus products with
the band's exact zeros, which add nothing; its rounding is therefore
relative to the local scale, as in a direct convolution, and a tail at
1e-200 keeps its relative accuracy next to an O(1) front.  That is what an
FFT cannot do: there every output mixes every input.  The rows are
gathered by slicing, not through an index array: the periodic extension
of the field from the first point the rows read is joined from slices
and viewed as rows b apart, and that view is copied once.  The gemm then
gets the same contiguous rows and the same band in one call as through
an index gather, so no output bit depends on how the rows were gathered.

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
certificate (u <= v from ordered data; tests/oracles.py) survives; a floor relative to each
run's own peak would cut the larger run's tail first and break it.  It
only removes mass and never injects any, so errors stay local to the
solution scale, and zero stays zero.  theta = 1e-250 is sized so that the
products stay normal: every stencil keeps just its taps above
_STENCIL_DROP of its own peak, so on the KPP preset grids kernel taps are
at least 5e-21 and ETD taps at least 6e-22 (the peaks of A and B are a
few 1e-3 at dt = 1/64), and a floored value reaches the next floored one
through at most two stencils (the kernel, then A or B; for h = 0 the
predictor is floored too), so no product falls below
theta * 3e-42 ~ 3e-292.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .grids import (DEFAULT_N_H, Grid, HistoryRing, Outputs, Trajectory,
                    _history_samples)
from .kernels import Kernel, discretize

__all__ = ["solve_kpp", "level_set", "LevelCrossings", "LevelScan",
           "LevelSetTrace", "trace_levels"]

_CLAMP_REL = 1e-13  # negatives below this fraction of the peak count as real
_STENCIL_DROP = 1e-19  # truncate propagator stencils below this, rel. peak
_UNDERFLOW = 1e-250  # absolute: |u| below this is set to 0 (module docstring)


@lru_cache(maxsize=32)
def _banded(taps: bytes, origin: int, n: int):
    """The band with which convolve1d applies the taps at this origin to
    n points, its block width b and the first point its rows read."""
    w = np.frombuffer(taps)
    m = w.size
    b = max(32, 1 << (m - 1).bit_length())
    band = np.zeros((b + m - 1, b))
    for t in range(b):
        band[t:t + m, t] = w[::-1]
    band.flags.writeable = False
    return band, b, (m // 2 + origin - (m - 1)) % n


def convolve1d(field: np.ndarray, weights: np.ndarray,
               origin: int = 0) -> np.ndarray:
    """Periodic convolution of a 1-D field with m taps, as
    scipy.ndimage.convolve1d(field, weights, mode="wrap", origin=origin)
    computes it:

        out[i] = sum_j weights[j] field[(i + m // 2 + origin - j) mod n],

    but as a banded block product (module docstring).  Unlike scipy's,
    any integer origin is accepted, so a one-sided stencil needs no zero
    padding towards offset 0.  The band is built once per taps, origin
    and n.

    Row r of the product holds the k = b + m - 1 points r b + start ..
    r b + start + k - 1 (mod n).  They are gathered by slicing: the
    periodic extension ext[i] = field[(start + i) mod n] of the (R - 1) b
    + k points that the R = ceil(n / b) rows read is joined from as many
    slices of the field as it wraps (more than two when n < k), and
    viewed as R rows of k with row stride b; that view is copied once,
    so the gemm gets the contiguous rows and the band that an index
    gather would give it, and rounds the same."""
    w = np.ascontiguousarray(weights, dtype=float)
    n = field.size
    band, b, start = _banded(w.tobytes(), int(origin), n)
    k, count = band.shape[0], -(-n // b)
    head = field[start:start + (count - 1) * b + k]
    laps, tail = divmod((count - 1) * b + k - head.size, n)
    ext = np.concatenate((head, *(field,) * laps, field[:tail]))
    rows = np.ndarray((count, k), ext.dtype, ext,
                      strides=(b * ext.itemsize, ext.itemsize)).copy()
    # freed before the product, whose output then reuses its memory; held
    # to the end of the call, it made the allocator return heap pages and
    # fault them back in at every step in some heap layouts
    del ext
    return np.matmul(rows, band).ravel()[:n]


def _phi_dc(dt: float):
    """Exact zero-frequency weights of the step.  ab is computed as the
    float complement of p0 and b as the complement of a, so the three
    weights sum to 1.0 exactly and a constant equilibrium is a fixed point
    of the step up to the rounding of the stencil sums: it settles during
    the first delay and does not drift.  Over grids of 256 to 8192 points,
    n_h 16, 32 and 64, Gaussian and Dirac kernels and Nicholson p 2 and 3
    it settled at most 50.5 eps kappa away (n_h 32, p 2), where the sums
    are rounded in the order of the BLAS gemm kernel."""
    p0 = math.exp(-dt)
    ab = 1.0 - p0  # dt phi1(-dt)
    z = -dt
    a = dt * (math.expm1(z) / z - (math.expm1(z) - z) / (z * z))
    b = ab - a
    return p0, a, b, ab


def _trimmed(taps: np.ndarray, total: float):
    """The stencil rule: keep the taps between the first and the last
    above _STENCIL_DROP of the largest |tap|, clip them at 0 and rescale
    them to sum to total exactly.  Returns the kept taps and the index of
    the first; all of them are kept when none is above (a step so long
    that every ETD tap underflows)."""
    mag = np.abs(taps)
    keep = np.flatnonzero(mag > _STENCIL_DROP * np.max(mag))
    first, last = (keep[0], keep[-1]) if keep.size else (0, taps.size - 1)
    kept = np.clip(taps[first:last + 1], 0.0, None)
    return kept * (total / np.sum(kept)), int(first)


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
    operator without bound as dt shrinks.  The taps are computed on a
    window that holds every offset above _STENCIL_DROP of the peak; each
    stencil is then trimmed by _trimmed to its own run above _STENCIL_DROP
    of its own peak (symmetric and unimodal about 0, so the centre stays
    at tap m // 2) and renormalized to its exact zero-frequency weight.

    A positive stencil cannot match the heat symbol once dt << dx^2 (the
    discrete symbol is 2 pi / dx periodic, the target is not flat at the
    edge), so sampling error grows if dt is refined far below dx^2; keep
    dt >= dx^2 / 3 or refine the grid along with the step."""
    half = int(math.ceil(
        math.sqrt(-4.0 * dt * math.log(_STENCIL_DROP)) / dx)) + 2
    half = min(max(half, 1), n // 2 - 1)
    xs = dx * np.arange(-half, half + 1)
    p0_dc, a_dc, b_dc, ab_dc = _phi_dc(dt)

    q, w = np.polynomial.legendre.leggauss(96)
    q = 0.5 * math.sqrt(dt) * (q + 1.0)  # interior nodes of (0, sqrt(dt))
    w = 0.5 * math.sqrt(dt) * w
    # on a huge cell the far taps' squares overflow; exp(-inf) = 0 is
    # their exact value
    with np.errstate(over="ignore"):
        p0 = np.exp(-xs * xs / (4.0 * dt))
        core = np.exp(-q[:, None] ** 2 - xs[None, :] ** 2
                      / (4.0 * q[:, None] ** 2))
    a = (w * q * q) @ core
    b = (w * (dt - q * q)) @ core
    ab = w @ core

    return tuple(_trimmed(taps, dc)[0] for taps, dc in
                 ((p0, p0_dc), (a, a_dc), (b, b_dc), (ab, ab_dc)))


def _kernel_applier(kernel0: Kernel, grid: Grid):
    """Return G -> k0 * G as a local operation: an exact index roll for
    grid-aligned point masses, a truncated sampled stencil otherwise, and
    zero for a kernel whose samples all vanish.

    The stencil holds the offsets lo..hi of the samples that _trimmed
    keeps, renormalized to the kernel's mass; it is applied off-centre
    through the origin of convolve1d, so a shifted kernel pays only for
    its own support, also when that lies wholly on one side of 0."""
    dk = discretize(kernel0, grid)
    n = grid.n
    if dk.shift_cells is not None:
        c, w = dk.shift_cells % n, dk.mass

        def shifted(G):
            # w np.roll(G, c), in one array and without np.roll's per-call
            # index bookkeeping
            out = np.empty_like(G)
            np.multiply(w, G[n - c:], out=out[:c])
            np.multiply(w, G[:n - c], out=out[c:])
            return out
        return shifted
    kern = np.roll(dk.samples * grid.dx, n // 2)  # index n // 2 is offset 0
    if not np.any(kern):
        return np.zeros_like
    taps, first = _trimmed(kern, float(np.sum(dk.samples) * grid.dx))
    lo = first - n // 2  # tap j holds offset lo + j
    # at origin 0 convolve1d would apply tap m // 2 at offset 0, so the
    # origin moves offset 0 to tap -lo
    origin = -(lo + taps.size // 2)
    return lambda G: convolve1d(G, taps, origin=origin)


def _floor(v: np.ndarray) -> np.ndarray:
    """Set every entry of the profile v of magnitude below _UNDERFLOW to
    exactly 0, in place (np.putmask, which writes through the mask
    without gathering the entries it selects), and return v; NaN and inf
    stay, so a blow-up still shows."""
    np.putmask(v, np.abs(v) < _UNDERFLOW, 0.0)
    return v


def _clamped_birth(birth, v, counter):
    """birth(v) with the negative entries of v set to 0; each entry below
    -_CLAMP_REL max(1, max|v|) is counted in counter[0].  The count and
    the clamp run only when v.min() is not >= 0: when an entry is
    negative, or a NaN hides the sign of the others (a NaN with no
    negative entry counts nothing and passes to birth as it is)."""
    if not v.min() >= 0.0:
        tol = _CLAMP_REL * max(1.0, float(np.max(np.abs(v))))
        counter[0] += int(np.count_nonzero(v < -tol))
        v = np.where(v < 0.0, 0.0, v)
    return birth(v)


def solve_kpp(kernel0: Kernel, birth, grid: Grid, u0, T: float, h: float,
              n_h: int | None = None, out_every: int | None = None,
              *, collect) -> Trajectory:
    """Solve the delayed non-local KPP equation on the periodic grid.

    u0: the initial profile, grid.n values or one number; the history
    on [-h, 0] is that profile, constant in time.  A callable is
    refused: a time history would be sampled at every ring node for a
    derivative that this step never reads.  The run starts from one
    floored copy of u0 (the caller's array is never written); at h > 0
    that copy fills every ring node and gives F_0 = k0 * g(u0).

    Negative delayed values (roundoff undershoots or deliberately signed
    data) are clamped to 0 before entering g; clamps beyond roundoff size
    are counted in the run's record.  Snapshots pass through
    grids.Outputs (out_every=None keeps about 400), which aborts with the
    last healthy time if one is not finite and warns when the solution
    reaches the periodic edge; each kept snapshot then goes to
    collect(t, u), and the returned Trajectory is the run's record.  u is
    a fresh array that the solver never writes again.  The clamp count,
    the edge fraction and the finiteness check cover every kept snapshot,
    and the kept snapshots must fit grids.MAX_BYTES whatever collect does
    with them.  At h = 0 the step is min(1/64, T/64), n_h is not used and
    the record reports n_h 0.
    """
    if T <= 0.0:
        raise ConfigError(f"final time must be positive, got {T}")
    if h < 0.0:
        raise ConfigError(f"delay must be nonnegative, got {h}")
    n_h = DEFAULT_N_H if n_h is None else int(n_h)
    if n_h < 1:
        raise ConfigError(f"n_h must be >= 1, got {n_h}")
    if callable(u0):
        raise ConfigError("u0 must be an initial profile, not a callable")
    dt = h / n_h if h > 0.0 else min(1.0 / 64.0, T / 64.0)
    out = Outputs(T, dt, out_every, grid.n, collect,
                  f"'h' = {h:g} and 'n_h' = {n_h:g}" if h > 0.0 else None)

    st_p0, st_a, st_b, st_ab = _etd_stencils(dt, grid.dx, grid.n)
    kconv = _kernel_applier(kernel0, grid)
    counter = [0]

    # values only: the step reads u(t - h) through g, never its derivative
    ring = HistoryRing(h, n_h, grid.n, float, derivatives=False) \
        if h > 0.0 else None
    u = _floor(_history_samples(u0, n_h, h, grid.n, float)[0][0])
    out.store(0, u)

    with np.errstate(over="ignore", invalid="ignore"):  # Outputs reports it
        if ring is not None:
            ring.fill(u, 0.0)
            F_prev = kconv(_clamped_birth(birth, u, counter))
        for n in range(out.n_steps):
            p0u = convolve1d(u, st_p0)
            if ring is None:  # F_n from u, F_{n+1} from the predictor
                F_prev = kconv(_clamped_birth(birth, u, counter))
                ahead = _floor(p0u + convolve1d(F_prev, st_ab))
            else:  # F_{n+1} from the stored u(t_{n+1} - h)
                _, (ahead, _) = ring.delayed_nodes()
            F_next = kconv(_clamped_birth(birth, ahead, counter))
            # summed in place into the fresh p0u, in the order
            # (P0 u + A F_n) + B F_{n+1}; no ring row is written but by push
            u = p0u
            u += convolve1d(F_prev, st_a)
            u += convolve1d(F_next, st_b)
            _floor(u)
            if ring is not None:
                ring.push(u, 0.0)
            F_prev = F_next
            out.store(n + 1, u)

    return out.trajectory(n_h if h > 0.0 else 0, counter[0])


@dataclass(frozen=True)
class LevelCrossings:
    """Leftmost and rightmost crossings of a level; NaN when the level is
    not attained on the relevant side (the explicit stand-in for the
    empty-set convention that would otherwise return 0)."""

    m_minus: float
    m_plus: float


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


class LevelScan:
    """The beta-crossings of a run, one snapshot at a time.

    Each call scan(t, u) appends t and the level_set crossings of u to
    times, m_minus and m_plus.  Passed to solve_kpp as collect, it reduces
    every kept snapshot as the solver makes it, so none is stored."""

    def __init__(self, x: np.ndarray, beta: float):
        self.x = x
        self.beta = beta
        self.times: list[float] = []
        self.m_minus: list[float] = []
        self.m_plus: list[float] = []

    def __call__(self, t: float, u: np.ndarray) -> None:
        lc = level_set(u, self.x, self.beta)
        self.times.append(t)
        self.m_minus.append(lc.m_minus)
        self.m_plus.append(lc.m_plus)


@dataclass(frozen=True)
class LevelSetTrace:
    """Time series of the two beta-crossings with drift diagnostics, as
    trace_levels forms them from a LevelScan.

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


def trace_levels(scan: LevelScan, speeds) -> LevelSetTrace:
    """The crossings a LevelScan collected, with the drift diagnostics
    built from the critical speeds; the snapshots themselves are not
    needed."""
    times = np.array(scan.times)
    m_minus = np.array(scan.m_minus)
    m_plus = np.array(scan.m_plus)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.where(times > 0.0, np.log(times), math.nan)
        M = m_minus + speeds.c_plus * times \
            - log_t / (2.0 * speeds.lambda_plus)
        M_star = m_plus + speeds.c_minus * times \
            - log_t / (2.0 * speeds.lambda_minus)
    return LevelSetTrace(beta=scan.beta, times=times, m_minus=m_minus,
                         m_plus=m_plus, M=M, M_star=M_star)
