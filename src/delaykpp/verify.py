"""Self-contained invariant suite behind the ``verify`` subcommand.

Five families of checks, all deterministic and fast enough to run on
every install: closed-form kernel transforms against direct quadrature,
the scalar delayed-root sign laws, the per-mode envelope sandwich, the
tangency residuals of the desk configuration, and the closed-form
critical-speed anchors (a wide Gaussian kernel among them).  Each check
returns a VerifyResult; run_checks runs them all, and the CLI's
``verify`` subcommand prints and writes the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import halanay_root
from .characteristic import (CharParams, critical_speeds, envelope_bounds,
                             gamma_zero, implicit_l, tangency_solve)
from .kernels import (Dirac, Gaussian, LaplaceKernel, UniformKernel,
                      quadrature_laplace)

__all__ = ["VerifyResult", "run_checks"]


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


def _check_kernel_transforms() -> VerifyResult:
    cases = []
    for kern in (Gaussian(0.0, 1.0, 1.0), Gaussian(-0.7, 0.5, 2.0),
                 LaplaceKernel(1.5), UniformKernel(2.0),
                 Gaussian(0.3, 1.2, 1.0).tilted(0.4).shifted(0.8),
                 LaplaceKernel(2.0).tilted(-0.3).scaled(0.5)):
        a, b = kern.domain()
        lo = max(a, -3.0) * 0.8
        hi = min(b, 3.0) * 0.8
        for z in np.linspace(lo, hi, 7):
            closed = complex(kern.laplace(z)).real
            quad = quadrature_laplace(kern, float(z))
            cases.append(abs(closed - quad) / max(abs(closed), 1.0))
    worst = max(cases)
    return VerifyResult("kernel_transforms_vs_quadrature", worst < 1e-9,
                        f"max relative gap {worst:.3e} over {len(cases)} "
                        "evaluations")


def _check_halanay_sign_laws() -> VerifyResult:
    rng = np.random.default_rng(20240711)
    worst_resid = 0.0
    sign_ok = True
    for _ in range(200):
        re_mu = float(rng.uniform(-8.0, 8.0))
        k_abs = float(rng.uniform(0.0, 8.0))
        h = float(rng.uniform(0.05, 4.0))
        root = halanay_root(re_mu, k_abs, h)
        resid = abs(root - re_mu - k_abs * math.exp(-h * root))
        worst_resid = max(worst_resid, resid)
        s = re_mu + k_abs
        # root and re_mu + k_abs always share a strict sign (or both 0):
        # at tau = 0 the defining function equals -(re_mu + k_abs)
        if s > 0:
            sign_ok = sign_ok and root > 0
        elif s < 0:
            sign_ok = sign_ok and root < 0
        else:
            sign_ok = sign_ok and root == 0.0
    passed = worst_resid < 1e-12 and sign_ok
    return VerifyResult("halanay_root_sign_laws", passed,
                        f"max residual {worst_resid:.3e}, sign laws "
                        f"{'exact' if sign_ok else 'VIOLATED'}")


def _check_envelope_sandwich() -> VerifyResult:
    worst = -math.inf
    probes = [
        (CharParams(0.0, -1.0, 1.0), Gaussian(0.0, 1.0, 1.0), 0.0),
        (CharParams(0.5, -0.8, 0.5), Gaussian(0.2, 0.8, 1.5), 0.3),
        (CharParams(0.0, -1.0, 1.0), Dirac(0.0, 1.0), 0.2),
    ]
    mono_ok = True
    for params, kern, z0 in probes:
        pair = gamma_zero(params, kern, z0)
        z = np.linspace(-12.0, 12.0, 401)
        l = implicit_l(params, pair, kern, z)
        lower, upper = envelope_bounds(params, pair, kern, z)
        worst = max(worst, float(np.max(lower - l)), float(np.max(l - upper)))
        zz = np.array([20.0, 40.0, 80.0])
        # compare z^2 e^{h l} in log space; the raw products underflow
        log_damp = params.h * implicit_l(params, pair, kern, zz) \
            + 2.0 * np.log(zz)
        mono_ok = mono_ok and bool(np.all(np.diff(log_damp) < 0.0))
    passed = worst < 1e-9 and mono_ok
    return VerifyResult("mode_envelope_sandwich", passed,
                        f"max sandwich violation {worst:.3e}, far-tail "
                        f"damping {'monotone' if mono_ok else 'NOT monotone'}")


def _check_tangency_residuals() -> VerifyResult:
    tang = tangency_solve(CharParams(0.2, -1.2, 1.0), Gaussian(0.0, 1.0, 1.0))
    resid = max(abs(tang.residual_value), abs(tang.residual_slope))
    anchors = (abs(tang.gamma_m - 0.10060137521391996) < 1e-10
               and abs(tang.z_m + 0.0643474242293473) < 1e-10
               and abs(tang.sigma_m - 0.7382655446503171) < 1e-10)
    passed = resid < 1e-10 and anchors and tang.sigma_m > 0.0
    return VerifyResult("tangency_residuals", passed,
                        f"residuals {resid:.3e}, frozen desk values "
                        f"{'matched' if anchors else 'MOVED'}")


def _check_speed_anchors() -> VerifyResult:
    sp0 = critical_speeds(Dirac(0.0, 1.0), 2.0, 0.0)
    gap0 = max(abs(sp0.c_plus - 2.0), abs(sp0.lambda_plus - 1.0),
               abs(sp0.c_minus + 2.0), abs(sp0.lambda_minus + 1.0))
    sp1 = critical_speeds(Dirac(0.0, 1.0), 2.0, 1.0)
    root = math.sqrt(math.log(2.0))
    gap1 = max(abs(sp1.c_plus - root), abs(sp1.lambda_plus - root))
    spg = critical_speeds(Gaussian(0.0, 1.0, 1.0), 2.0, 1.0)
    sym = max(abs(spg.c_plus + spg.c_minus),
              abs(spg.lambda_plus + spg.lambda_minus))
    # a wide kernel puts the tangency tilt near 0.04; at h = 0 its speed is
    # min over lam > 0 of (lam^2 - 1 + 2 e^{200 lam^2}) / lam, which a
    # bounded Brent minimisation puts at 43.89594814583949
    spw = critical_speeds(Gaussian(0.0, 20.0, 1.0), 2.0, 0.0)
    gapw = abs(spw.c_plus / 43.89594814583949 - 1.0)
    passed = gap0 < 1e-10 and gap1 < 1e-10 and sym < 1e-10 and gapw < 1e-10
    return VerifyResult("critical_speed_anchors", passed,
                        f"h=0 gap {gap0:.3e}, h=1 gap {gap1:.3e}, "
                        f"symmetry gap {sym:.3e}, wide-kernel relative gap "
                        f"{gapw:.3e}")


_CHECKS = [_check_kernel_transforms, _check_halanay_sign_laws,
           _check_envelope_sandwich, _check_tangency_residuals,
           _check_speed_anchors]


def run_checks() -> list[VerifyResult]:
    return [chk() for chk in _CHECKS]
