"""Kernel families: closed-form transforms against quadrature, algebra of
shift/tilt/scale, the config form, and discretization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaykpp.errors import TransformDomainError
from delaykpp.grids import Grid
from delaykpp.kernels import (Dirac, Gaussian, LaplaceKernel, TiltedKernel,
                              UniformKernel, discretize,
                              kernel_from_dict, quadrature_laplace)
from oracles import multiplier

ALL_FAMILIES = [
    Dirac(0.3, 1.0),
    Gaussian(0.0, 1.0, 1.0),
    Gaussian(-0.5, 0.7, 2.0),
    # a shifted mean; the id is the one the former subclass gave the case
    pytest.param(Gaussian(1.2, 0.9, 1.0), id="ShiftedGaussian"),
    LaplaceKernel(1.5),
    UniformKernel(2.0),
    # the wrapper around a family that tilts out of closed form, moved off
    # 0 and rescaled; its strip is (-2.5, 1.5)
    LaplaceKernel(2.0, 0.3).tilted(0.5).shifted(-0.4).scaled(1.5),
]


def _interior(kernel, frac=0.6):
    a, b = kernel.domain()
    lo = a * frac if math.isfinite(a) else -3.0
    hi = b * frac if math.isfinite(b) else 3.0
    return lo, hi


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: type(k).__name__)
def test_laplace_matches_quadrature(kernel):
    lo, hi = _interior(kernel)
    for z in np.linspace(lo, hi, 9):
        closed = complex(kernel.laplace(float(z))).real
        quad = quadrature_laplace(kernel, float(z))
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: type(k).__name__)
def test_moments_are_transform_derivatives(kernel):
    # moment1 = -d/dz laplace, moment2 = d^2/dz^2 laplace
    lo, hi = _interior(kernel, frac=0.4)
    eps = 1e-5
    for z in np.linspace(lo * 0.9, hi * 0.9, 5):
        z = float(z)
        lp = complex(kernel.laplace(z + eps)).real
        lm = complex(kernel.laplace(z - eps)).real
        l0 = complex(kernel.laplace(z)).real
        m1 = complex(kernel.moment1(z)).real
        m2 = complex(kernel.moment2(z)).real
        assert m1 == pytest.approx(-(lp - lm) / (2 * eps), rel=1e-7, abs=1e-7)
        assert m2 == pytest.approx((lp - 2 * l0 + lm) / eps**2,
                                   rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: type(k).__name__)
def test_fourier_is_laplace_on_imaginary_axis(kernel):
    xi = np.linspace(-4.0, 4.0, 17)
    np.testing.assert_allclose(kernel.fourier(xi), kernel.laplace(1j * xi),
                               rtol=1e-12, atol=1e-12)


# one case per family and the wrapper; every tilt below keeps z + lam
# inside the strip (-2.5, 2.5) of the Laplace kernel and (-2.6, 3.4) of
# the wrapped one
ALGEBRA_BASES = [Dirac(0.3, 1.0), Gaussian(0.2, 1.1, 1.0),
                 LaplaceKernel(2.5, 0.2, 1.0), UniformKernel(1.5, -0.3, 2.0),
                 TiltedKernel(LaplaceKernel(3.0), -0.4, 0.8)]


@settings(max_examples=60, deadline=None)
@given(s=st.floats(-2.0, 2.0), lam=st.floats(-0.8, 0.8),
       c=st.floats(0.1, 3.0), z=st.floats(-1.0, 1.0))
def test_shift_tilt_scale_transform_algebra(s, lam, c, z):
    for base in ALGEBRA_BASES:
        L, m1, m2 = (complex(f(z)) for f in
                     (base.laplace, base.moment1, base.moment2))
        e = math.exp(-z * s)
        moved = base.shifted(s)
        # y k(y - s) = ((y - s) + s) k(y - s): the moments pick up s
        assert complex(moved.laplace(z)) == pytest.approx(e * L, rel=1e-12)
        assert complex(moved.moment1(z)) == pytest.approx(
            e * (m1 + s * L), rel=1e-12, abs=1e-12 * e * (abs(m1) + abs(s * L)))
        assert complex(moved.moment2(z)) == pytest.approx(
            e * (m2 + 2.0 * s * m1 + s * s * L), rel=1e-12,
            abs=1e-12 * e * (abs(m2) + abs(2.0 * s * m1) + abs(s * s * L)))
        assert complex(base.tilted(lam).laplace(z)) == pytest.approx(
            complex(base.laplace(z + lam)), rel=1e-12)
        assert complex(base.tilted(lam).moment2(z)) == pytest.approx(
            complex(base.moment2(z + lam)), rel=1e-12)
        assert complex(base.scaled(c).laplace(z)) == pytest.approx(
            c * L, rel=1e-12)
        assert complex(base.scaled(c).moment1(z)) == pytest.approx(
            c * m1, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("kernel", [LaplaceKernel(2.0), UniformKernel(1.0)])
def test_wrapped_tilt_matches_quadrature(kernel):
    tilted = kernel.tilted(0.5)
    assert isinstance(tilted, TiltedKernel)
    for z in (-0.6, 0.0, 0.8):
        closed = complex(tilted.laplace(z)).real
        assert closed == pytest.approx(quadrature_laplace(tilted, z),
                                       rel=1e-8)


def test_laplace_strip_is_enforced():
    kern = LaplaceKernel(1.0)
    with pytest.raises(TransformDomainError):
        kern.laplace(1.5)
    with pytest.raises(TransformDomainError):
        quadrature_laplace(kern, 1.5)


def test_dirac_has_no_density():
    with pytest.raises(TypeError):
        Dirac(0.0, 1.0).density(0.0)


# ALL_FAMILIES built from literal config specs, under the same ids
@pytest.mark.parametrize("spec, kernel", [
    pytest.param({"family": "dirac", "shift": 0.3, "mass": 1.0},
                 Dirac(0.3, 1.0), id="Dirac"),
    pytest.param({"family": "gaussian", "mean": 0.0, "stddev": 1.0},
                 Gaussian(0.0, 1.0, 1.0), id="Gaussian0"),
    pytest.param({"family": "gaussian", "mean": -0.5, "stddev": 0.7,
                  "mass": 2.0}, Gaussian(-0.5, 0.7, 2.0), id="Gaussian1"),
    pytest.param({"family": "gaussian", "mean": 1.2, "stddev": 0.9},
                 Gaussian(1.2, 0.9, 1.0), id="ShiftedGaussian"),
    pytest.param({"family": "laplace", "rate": 1.5}, LaplaceKernel(1.5),
                 id="LaplaceKernel"),
    pytest.param({"family": "uniform", "half_width": 2.0},
                 UniformKernel(2.0), id="UniformKernel"),
])
def test_dict_round_trip(spec, kernel):
    again = kernel_from_dict(spec)
    assert type(again) is type(kernel)
    assert again == kernel


def test_shifted_gaussian_family_is_a_gaussian_alias():
    spec = {"family": "shifted_gaussian", "mean": 1.2, "stddev": 0.9}
    assert kernel_from_dict(spec) == Gaussian(1.2, 0.9, 1.0)


def test_kernel_from_dict_names_bad_family():
    with pytest.raises(ValueError, match="unknown kernel family"):
        kernel_from_dict({"family": "nope"})
    with pytest.raises(ValueError, match="bad parameters"):
        kernel_from_dict({"family": "gaussian", "wat": 1.0})


def test_discretized_gaussian_matches_analytic_multiplier():
    grid = Grid(64.0, 1024)
    kern = Gaussian(0.3, 1.0, 1.0)
    dk = discretize(kern, grid)
    # low modes of the sampled-kernel circulant agree with the transform
    # (grid.xi is the half spectrum, the first n/2 + 1 FFT modes)
    analytic = kern.fourier(grid.xi)
    sel = np.abs(grid.xi) < 4.0
    np.testing.assert_allclose(multiplier(dk)[: grid.n // 2 + 1][sel],
                               analytic[sel], rtol=1e-8, atol=1e-10)


def test_discretized_dirac_is_exact_shift():
    grid = Grid(32.0, 256)
    shift = 4 * grid.dx
    dk = discretize(Dirac(shift, 1.0), grid)
    u = np.exp(-grid.x**2)
    conv = np.fft.ifft(multiplier(dk) * np.fft.fft(u)).real
    np.testing.assert_allclose(conv, np.roll(u, 4), atol=1e-12)


def test_tilted_density_vanishes_outside_support():
    tilted = UniformKernel(1.0).tilted(2.0)
    x = np.array([-500.0, -2.0, 0.0, 2.0, 500.0])
    d = tilted.density(x)
    assert np.all(np.isfinite(d))
    assert d[0] == 0.0 and d[-1] == 0.0 and d[2] > 0.0
