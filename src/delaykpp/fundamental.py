"""Fourier-synthesized fundamental solution of the linear delayed equation.

The construction rests on the implicit real symbol

    rho(z) = -z^2 + p + K(z) e^{-h rho(z)},      K(z) = e^{-i z m h} khat(z),

(K is the transform of the kernel shifted by m h).  When K is real and
positive and |khat(z)| = O(e^{-h z^2}) the oscillatory synthesis

    Gamma_h(t, x) = int e^{i (x + m t) y} e^{[rho(y) + gamma] t} dy

converges for every t > 0 and yields a fundamental solution; outside that
gate the construction is refused.  gamma is a free exponential rescaling;
the natural normalization gamma = -rho(0) makes the zero mode neutral, so
(1/2pi) Gamma_h(t, .) acts as an approximate identity as t -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._roots import halanay_root_grid
from .characteristic import CharParams
from .errors import ConfigError, GateError
from .kernels import Kernel

__all__ = ["SymbolTable", "gate_check", "rho_solve", "symbol_table",
           "approx_identity_error", "pde_residual"]

_DECAY_CAP = 1e3  # gate: sup |khat(z)| e^{h z^2} over the grid, per unit mass
MAX_NODES = 2 ** 13 + 1  # the most nodes of a symbol grid (symbol_table)


def _shifted_transform(params: CharParams, kernel: Kernel, z):
    z = np.asarray(z, dtype=float)
    return np.exp(-1j * z * params.m * params.h) * kernel.fourier(z)


def gate_check(params: CharParams, kernel: Kernel, z_max: float,
               n: int = 801) -> None:
    """Applicability gate for the Fourier synthesis.

    Requires (i) the shifted transform K(z) real and positive on the grid
    and (ii) the Gaussian-type decay |khat(z)| e^{h z^2} bounded.  Raises
    GateError naming the first failing z.
    """
    z = np.linspace(-z_max, z_max, n)
    K = _shifted_transform(params, kernel, z)
    scale = max(kernel.mass, 1e-300)
    bad = np.abs(K.imag) > 1e-10 * scale
    if np.any(bad):
        zb = z[np.argmax(bad)]
        raise GateError(
            f"shifted kernel transform is not real at z={zb:.6g} "
            f"(imaginary part {K.imag[np.argmax(bad)]:.3e})")
    # sign check only: far-tail values of a valid transform underflow to 0
    bad = K.real < -1e-10 * scale
    if np.any(bad):
        zb = z[np.argmax(bad)]
        raise GateError(
            f"shifted kernel transform is negative at z={zb:.6g} "
            f"(value {K.real[np.argmax(bad)]:.3e})")
    if params.h > 0.0:
        # log space: |khat| and e^{h z^2} individually under/overflow
        with np.errstate(divide="ignore"):
            log_growth = np.log(np.abs(kernel.fourier(z))) + params.h * z * z
        j = int(np.argmax(log_growth))
        if log_growth[j] > np.log(_DECAY_CAP * scale):
            raise GateError(
                f"kernel transform decays too slowly at z={z[j]:.6g}: "
                f"|khat| e^(h z^2) = {np.exp(min(log_growth[j], 700.0)):.3e} "
                f"exceeds {_DECAY_CAP * scale:.1e}")


def rho_solve(params: CharParams, kernel: Kernel, z):
    """Real symbol rho(z): unique root of rho = -z^2 + p + K(z) e^{-h rho}.

    Vectorized; K(z) must be real positive (checked pointwise here, on the
    full grid by gate_check)."""
    z_arr = np.asarray(z, dtype=float)
    K = _shifted_transform(params, kernel, z_arr)
    if np.any(np.abs(K.imag) > 1e-10 * max(kernel.mass, 1e-300)):
        raise GateError(f"shifted kernel transform not real at z={z!r}")
    out = halanay_root_grid(-z_arr * z_arr + params.p, K.real, params.h)
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class SymbolTable:
    """Frozen grid of the implicit symbol rho on [-z_max, z_max]."""

    z: np.ndarray
    rho: np.ndarray
    params: CharParams
    kernel: Kernel

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def rho0(self) -> float:
        return float(self.rho[len(self.rho) // 2])

    def residual(self) -> float:
        K = np.real(_shifted_transform(self.params, self.kernel, self.z))
        r = self.rho + self.z ** 2 - self.params.p - \
            K * np.exp(-self.params.h * self.rho)
        return float(np.max(np.abs(r)))


def symbol_table(params: CharParams, kernel: Kernel, t_min: float,
                 x_span: float) -> SymbolTable:
    """Build the symbol grid after passing the gate.

    z_max is sized so the synthesis integrand at t_min is below 1e-14 of
    its peak at the grid ends; dz resolves oscillations e^{izx} for
    |x| up to x_span with margin.  The node count is odd, so z = 0 is a
    node.  A grid of more than MAX_NODES nodes is refused, by the fields
    x_span and t_min that size it, before anything is allocated: the
    synthesis at the 801 probe points of the CLI holds an 801 x n
    complex matrix, 105 MB at MAX_NODES.
    """
    z_max = float(np.sqrt(37.0 / t_min))
    dz_target = 2.0 * np.pi / (2.5 * x_span)
    half = z_max / dz_target
    if not half <= (MAX_NODES - 1) // 2:
        raise ConfigError(f"fields 'x_span' = {x_span:g} and 't_min' = "
                          f"{t_min:g}: the symbol grid needs {2 * half + 1:.3g}"
                          f" nodes, above MAX_NODES = {MAX_NODES}")
    n = int(2 * round(half) + 1)
    gate_check(params, kernel, z_max, max(n, 801))
    z = np.linspace(-z_max, z_max, n)
    rho = rho_solve(params, kernel, z)
    return SymbolTable(z=z, rho=rho, params=params, kernel=kernel)


def _tail_guard(table: SymbolTable, t: float) -> None:
    top = float(np.max(table.rho))
    tail = max(table.rho[0], table.rho[-1])
    if np.exp((tail - top) * t) > 1e-12:
        raise ConfigError(
            f"symbol grid too short for t={t}: boundary weight "
            f"exp({(tail - top) * t:.3g}) above 1e-12; extend z_max")


def _synthesize(table: SymbolTable, x, t: float, weights):
    """Trapezoid synthesis int e^{i (x + m t) z} weights(z) dz over the
    symbol grid, at each point of x."""
    return np.exp(1j * np.outer(x + table.params.m * t, table.z)) \
        @ weights * table.dz


def approx_identity_error(table: SymbolTable, t: float, psi_x: np.ndarray,
                          psi_values: np.ndarray) -> float:
    """sup_x |(1/2pi) (Gamma_h(t,.) * psi)(x) - psi(x)| / sup|psi|.

    The convolution is evaluated in symbol space: psi is transformed at
    the table's z-nodes by direct quadrature, multiplied by the synthesis
    weight, and resynthesized at the sample points."""
    if t <= 0.0:
        raise ConfigError("approximate-identity probe needs t > 0")
    _tail_guard(table, t)
    x = np.asarray(psi_x, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    dx = x[1] - x[0]
    psi_hat = np.exp(-1j * np.outer(table.z, x)) @ psi * dx
    weight = np.exp((table.rho - table.rho0) * t)
    conv = _synthesize(table, x, t, weight * psi_hat) / (2.0 * np.pi)
    return float(np.max(np.abs(conv.real - psi)) / np.max(np.abs(psi)))


def pde_residual(table: SymbolTable, t: float,
                 dt: float | None = None) -> float:
    """Relative residual of the delayed equation for Gamma_h at time t,
    over 257 points of [-20, 20].

    Spatial derivatives, the reaction term, and the delayed convolution
    are evaluated exactly in symbol space (unshifted by rho0, where the
    symbol identity is exact); the time derivative is a central difference
    with step dt (default h/256, or t/256 at h = 0), so the residual
    scales as dt^2.
    Requires t > h: the delayed value must come from the same synthesis.
    """
    h = table.params.h
    if t <= h:
        raise ConfigError(
            f"residual needs t > h so Gamma_h(t-h) exists (t={t}, h={h})")
    if dt is None:
        dt = h / 256.0 if h > 0 else t / 256.0
    _tail_guard(table, t + dt)
    x = np.linspace(-20.0, 20.0, 257)
    m, p = table.params.m, table.params.p
    z = table.z
    e_rho_t = np.exp(table.rho * t)
    khat = table.kernel.fourier(z)
    dG = (_synthesize(table, x, t + dt, np.exp(table.rho * (t + dt))) -
          _synthesize(table, x, t - dt, np.exp(table.rho * (t - dt))))
    spatial = _synthesize(table, x, t, (-z * z + 1j * m * z + p) * e_rho_t)
    delayed = _synthesize(table, x, t - h, khat * np.exp(table.rho * (t - h)))
    gamma_t = _synthesize(table, x, t, e_rho_t)
    resid = dG / (2.0 * dt) - spatial - delayed
    return float(np.max(np.abs(resid)) / np.max(np.abs(gamma_t)))
