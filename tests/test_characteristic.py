"""Characteristic machinery: the scalar delayed root and its sign laws,
mode envelopes, tangency solutions, and critical speeds.

Independent oracles: scipy's Lambert W for the delayed root, plain brentq
re-solves of the defining transcendental equations, and closed-form fixed
points of the Gaussian-variance-2 configuration (where the kernel side
exactly cancels the quadratic and l(z) = -z^2 - 1 + gamma-corrections
becomes checkable by hand).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import lambertw

from delaykpp import (CharParams, ConfigError, Dirac, Gaussian, LaplaceKernel,
                      UniformKernel, critical_speeds, envelope_bounds,
                      gamma_on_grid, gamma_zero, halanay_root, implicit_l,
                      polish_speed, tangency_solve)
from delaykpp._roots import halanay_root_grid
from delaykpp.characteristic import SpeedPair
from oracles import local_expansion, local_tail_ratio

DESK = CharParams(m=0.2, p=-1.2, h=1.0)
DESK_KERNEL = Gaussian(0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# scalar delayed root


@settings(max_examples=150, deadline=None)
@given(re_mu=st.floats(-8.0, 8.0), k_abs=st.floats(0.0, 8.0),
       h=st.floats(0.0, 4.0))
# re_mu + k_abs == 0: the root is exactly 0, which rounding would miss
@example(re_mu=-1.0, k_abs=1.0, h=1.0)
@example(re_mu=-2.5, k_abs=2.5, h=0.5)
@example(re_mu=-7.75, k_abs=7.75, h=4.0)
@example(re_mu=-0.1, k_abs=0.1, h=3.0)
@example(re_mu=-1.0, k_abs=1.0, h=0.0)
@example(re_mu=0.0, k_abs=0.0, h=1.0)
# h * k_abs underflows: u must be log h + log k_abs, not log(h k_abs)
@example(re_mu=0.0, k_abs=4.9e-272, h=4.9e-272)
def test_halanay_root_residual_and_signs(re_mu, k_abs, h):
    root = halanay_root(re_mu, k_abs, h)
    assert abs(root - re_mu - k_abs * math.exp(-h * root)) < 1e-12
    s = re_mu + k_abs
    if s > 0:
        assert root > 0
    elif s < 0:
        assert root < 0
    else:
        assert root == 0.0


def test_halanay_root_against_lambertw():
    # tau = a + k e^{-h tau}  <=>  tau = a + W(h k e^{-h a}) / h
    for a, k, h in [(-1.0, 2.0, 1.0), (0.5, 0.3, 2.0), (-3.0, 5.0, 0.7),
                    (2.0, 1.0, 0.1), (-0.2, 0.0, 1.0)]:
        root = halanay_root(a, k, h)
        if k == 0.0:
            assert root == a
            continue
        w = float(lambertw(h * k * math.exp(-h * a)).real)
        assert root == pytest.approx(a + w / h, rel=1e-12, abs=1e-12)
    assert halanay_root(-1.0, 2.0, 1.0) == pytest.approx(
        0.3748225281836234, abs=1e-13)


def test_halanay_root_grid_against_lambertw_across_u():
    # tau = a + W(e^u) / h with u = log h + log k - h a; u runs from -30 to
    # 120 on each delay, across u = 1 + e, where tau - a is read from u - s
    # instead of e^s, and across u = 40, where an earlier solver switched
    # from bisection to a second Newton iteration
    u = np.linspace(-30.0, 120.0, 301)
    for h, k in ((0.05, 3.0), (0.7, 1.0), (2.0, 1e-6), (4.0, 5e4)):
        a = (math.log(h) + math.log(k) - u) / h
        root = halanay_root_grid(a, k, h)
        w = lambertw(np.exp(u)).real / h
        assert np.all(np.abs(root - (a + w)) <= 1e-14 * (np.abs(a) + w))
    # h * k underflows to 0; here e^{-h tau} = 1 to rounding, so tau = k
    assert halanay_root(0.0, 4.9e-272, 4.9e-272) == pytest.approx(
        4.9e-272, rel=1e-12)


def test_halanay_root_deep_decay_regression():
    # large-negative linear rates once returned garbage bisection
    # midpoints
    for a in (-401.0, -1601.0, -6401.0):
        root = halanay_root(a, 1.0, 1.0)
        assert abs(root - a - math.exp(-root)) < 2e-12
        assert root == pytest.approx(-math.log(-a), abs=0.05)
    # u = -a and s is about 35: reading tau as a + e^s rather than from
    # log h + log k - s would lose all of tau to cancellation
    for a in (-1e15, -5e15):
        assert halanay_root(a, 1.0, 1.0) == pytest.approx(-math.log(-a),
                                                          abs=1e-9)


def test_halanay_root_within_envelope_of_mpmath():
    # the envelope of the _roots docstring: 64 ulps of max(1, |tau|) on
    # four bands of |re_mu| from 1e10 to 1e19, where reading tau as
    # re_mu + e^s / h once cancelled (k = e^{+-5}, h = 1), and on a
    # log-uniform set with |re_mu| <= 1e19, k in [1e-8, 1e8] and h in
    # [1e-3, 1e3]
    mp = pytest.importorskip("mpmath")
    cases = []
    for lo, hi in ((1e10, 1e15), (1e15, 1e16), (1e16, 1e17), (1e17, 1e19)):
        for a in np.geomspace(lo, hi, 100):
            cases += [(sign * a, k, 1.0) for sign in (1.0, -1.0)
                      for k in (math.exp(5.0), math.exp(-5.0))]
    rng = np.random.default_rng(2026)
    n = 3000
    cases += zip(rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3, 19, n),
                 10.0 ** rng.uniform(-8, 8, n), 10.0 ** rng.uniform(-3, 3, n))
    with mp.workdps(60):
        for a, k, h in cases:
            # tau = a + W_0(e^u) / h with u = log h + log k - h a
            u = mp.log(h) + mp.log(k) - mp.mpf(h) * mp.mpf(a)
            want = float(mp.mpf(a) + mp.lambertw(mp.exp(u)).real / h)
            err = abs(halanay_root(a, k, h) - want) / max(1.0, abs(want))
            assert err <= 64 * np.finfo(float).eps, (a, k, h)


def test_halanay_root_rejects_bad_inputs():
    with pytest.raises(ValueError):
        halanay_root(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        halanay_root(0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# decay pairs


def test_gamma_zero_desk_value_against_brentq():
    pair = gamma_zero(DESK, DESK_KERNEL, 0.0)
    q1 = float(DESK.q1(0.0))
    q2 = float(np.real(DESK_KERNEL.laplace(0.0)))
    oracle = brentq(lambda g: -g + q1 - q2 * math.exp(g), -10.0, 10.0,
                    xtol=1e-14)
    assert pair.gamma0 == pytest.approx(oracle, abs=1e-12)
    assert pair.gamma0 == pytest.approx(0.09754212184966865, abs=1e-13)


def test_gamma_zero_variance_two_closed_form():
    # q1(0) = 1 and q2(0) = 1 make gamma = 0 the exact root
    par = CharParams(0.0, -1.0, 1.0)
    pair = gamma_zero(par, Gaussian(0.0, math.sqrt(2.0), 1.0), 0.0)
    assert abs(pair.gamma0) < 1e-15


def test_gamma_on_grid_matches_scalar():
    z = np.linspace(-1.5, 1.5, 11)
    grid_vals = gamma_on_grid(DESK, DESK_KERNEL, z)
    for zi, gi in zip(z, grid_vals):
        assert gi == pytest.approx(
            gamma_zero(DESK, DESK_KERNEL, float(zi)).gamma0, abs=1e-12)


def test_gamma_zero_outside_strip_refused():
    with pytest.raises(ConfigError):
        gamma_zero(DESK, LaplaceKernel(1.0), 1.5)


# ---------------------------------------------------------------------------
# mode envelope l(z) and its sandwich


def test_implicit_l_variance_two_closed_form():
    # amp(z) e^{-h l} with amp = e^{-z^2} cancels the quadratic exactly:
    # l = -z^2 - 1 + e^{-z^2} e^{-l} has the closed root l = -z^2 - 1 + w
    # with w e^{w} = e^{1}; spot-check the z where w cancels to give -9
    par = CharParams(0.0, -1.0, 1.0)
    kern = Gaussian(0.0, math.sqrt(2.0), 1.0)
    pair = gamma_zero(par, kern, 0.0)
    assert float(implicit_l(par, pair, kern, 3.0)) == pytest.approx(-9.0,
                                                                    abs=1e-12)
    w = float(lambertw(math.e).real)
    for z in (0.5, 1.0, 2.0):
        expected = -z * z - 1.0 + w
        assert float(implicit_l(par, pair, kern, z)) == pytest.approx(
            expected, abs=1e-12)


def test_implicit_l_against_lambertw():
    # l = base + amp e^{-l}  <=>  l = base + W(amp e^{-base})
    pair = gamma_zero(DESK, DESK_KERNEL, 0.3)
    for z in (-4.0, -1.0, 0.0, 2.0, 6.0):
        amp = math.exp(DESK.h * pair.gamma0) * abs(
            complex(DESK_KERNEL.laplace(pair.z0 + 1j * z)))
        base = -z * z + pair.gamma0 - float(DESK.q1(pair.z0))
        oracle = base + float(lambertw(math.exp(math.log(amp) - base)).real)
        assert float(implicit_l(DESK, pair, DESK_KERNEL, z)) == pytest.approx(
            oracle, abs=1e-11)


ENVELOPE_CONFIGS = [
    (DESK, DESK_KERNEL, 0.0),
    (DESK, DESK_KERNEL, 0.4),
    (CharParams(0.0, -1.0, 1.0), Gaussian(0.0, math.sqrt(2.0), 1.0), 0.0),
    (CharParams(0.5, -0.8, 0.5), Gaussian(0.2, 0.8, 1.5), -0.2),
    (CharParams(0.0, -1.0, 2.0), Dirac(0.0, 1.0), 0.1),
    (CharParams(-0.3, -1.1, 0.25), UniformKernel(1.5), 0.2),
    (CharParams(0.0, -1.0, 1.0), LaplaceKernel(2.0), 0.0),
]


@pytest.mark.parametrize("params,kern,z0", ENVELOPE_CONFIGS,
                         ids=[f"cfg{i}" for i in range(len(ENVELOPE_CONFIGS))])
def test_envelope_sandwich(params, kern, z0):
    pair = gamma_zero(params, kern, z0)
    z = np.linspace(-10.0, 10.0, 1001)
    l = implicit_l(params, pair, kern, z)
    lower, upper = envelope_bounds(params, pair, kern, z)
    assert np.all(lower <= l + 1e-9)
    assert np.all(l <= upper + 1e-9)


@pytest.mark.parametrize("kern", [DESK_KERNEL, Dirac(0.0, 1.0)],
                         ids=["gaussian", "dirac"])
def test_far_tail_damping_monotone(kern):
    pair = gamma_zero(DESK, kern, 0.0)
    zz = np.array([20.0, 40.0, 80.0])
    log_damp = DESK.h * implicit_l(DESK, pair, kern, zz) + 2.0 * np.log(zz)
    assert np.all(np.diff(log_damp) < 0.0)


def test_envelope_h_zero_degenerates_to_heat():
    par = CharParams(0.0, -1.0, 0.0)
    pair = gamma_zero(par, DESK_KERNEL, 0.0)
    z = np.linspace(-5.0, 5.0, 101)
    _, upper = envelope_bounds(par, pair, DESK_KERNEL, z)
    np.testing.assert_allclose(upper, -z * z, atol=1e-12)


def test_local_tail_ratio_tends_to_one():
    vals = [local_tail_ratio(1.0, 1.0, z, 1.0) for z in (20.0, 40.0, 80.0)]
    assert vals[0] == pytest.approx(1.01260423702648, rel=1e-10)
    assert vals[1] == pytest.approx(1.0039995371670938, rel=1e-10)
    assert vals[2] == pytest.approx(1.0012144167049255, rel=1e-10)
    assert vals[0] > vals[1] > vals[2] > 1.0


def test_local_tail_ratio_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        local_tail_ratio(1.0, 0.0, 3.0, 1.0)
    with pytest.raises(ConfigError):
        local_tail_ratio(-1.0, 1.0, 3.0, 1.0)


# ---------------------------------------------------------------------------
# tangency


def test_tangency_desk_frozen_values():
    tang = tangency_solve(DESK, DESK_KERNEL)
    assert tang.gamma_m == pytest.approx(0.10060137521391996, abs=1e-12)
    assert tang.z_m == pytest.approx(-0.0643474242293473, abs=1e-12)
    assert tang.sigma_m == pytest.approx(0.7382655446503171, abs=1e-12)
    assert abs(tang.residual_value) < 1e-10
    assert abs(tang.residual_slope) < 1e-10
    assert tang.sigma_m > 0.0 and tang.k_star > 0.0


def test_tangency_satisfies_both_equations():
    tang = tangency_solve(DESK, DESK_KERNEL)
    gm, zm = tang.gamma_m, tang.z_m
    q2 = float(np.real(DESK_KERNEL.laplace(zm)))
    q2p = -float(np.real(DESK_KERNEL.moment1(zm)))
    # value match: q1(zm) - gamma = e^{h gamma} q2(zm)
    lhs = float(DESK.q1(zm)) - gm
    rhs = math.exp(DESK.h * gm) * q2
    assert lhs == pytest.approx(rhs, abs=1e-10)
    # slope match: q1'(zm) = e^{h gamma} q2'(zm)
    assert float(DESK.q1_prime(zm)) == pytest.approx(
        math.exp(DESK.h * gm) * q2p, abs=1e-10)


def test_tangency_gamma_is_max_of_gamma_curve():
    tang = tangency_solve(DESK, DESK_KERNEL)
    z = np.linspace(tang.z_m - 0.5, tang.z_m + 0.5, 201)
    gam = gamma_on_grid(DESK, DESK_KERNEL, z)
    assert float(np.max(gam)) <= tang.gamma_m + 1e-9
    assert gam[100] == pytest.approx(tang.gamma_m, abs=1e-6)


def test_tangency_beside_a_transform_pole():
    # z_m sits 2e-4 inside the strip edge z = rate, where q2 has its pole;
    # Newton seeded at the scan's grid node does not reach it
    params = CharParams(-17.75, -2.88, 0.0)
    kern = LaplaceKernel(rate=2.666835482299397, center=5.9788445980831195,
                         mass=3.3484599147038203)
    tang = tangency_solve(params, kern)
    assert tang.z_m == pytest.approx(2.666629, abs=1e-6)
    assert tang.gamma_m == pytest.approx(43.0992, abs=1e-4)
    assert abs(tang.residual_value) < 1e-10
    assert abs(tang.residual_slope) < 1e-10
    # at h = 0 the slope equation is q1'(z) = q2'(z), and q2' = -moment1
    oracle = brentq(lambda z: float(params.q1_prime(z))
                    + float(np.real(kern.moment1(z))), 2.0, 2.6668, xtol=1e-15)
    assert tang.z_m == pytest.approx(oracle, rel=1e-13)
    assert tang.gamma_m == pytest.approx(
        float(gamma_on_grid(params, kern, oracle)), rel=1e-13)


def test_local_expansion_recovers_sigma():
    tang = tangency_solve(DESK, DESK_KERNEL)
    r1 = local_expansion(tang, DESK, DESK_KERNEL, 0.1)
    r2 = local_expansion(tang, DESK, DESK_KERNEL, 0.05)
    richardson = (4.0 * r2 - r1) / 3.0
    assert richardson == pytest.approx(-tang.sigma_m, rel=1e-6)


# ---------------------------------------------------------------------------
# critical speeds


def test_speeds_dirac_h0_closed_form():
    sp = critical_speeds(Dirac(0.0, 1.0), 2.0, 0.0)
    assert sp.c_plus == pytest.approx(2.0, abs=1e-10)
    assert sp.lambda_plus == pytest.approx(1.0, abs=1e-10)
    assert sp.c_minus == pytest.approx(-2.0, abs=1e-10)
    assert sp.lambda_minus == pytest.approx(-1.0, abs=1e-10)


def test_speeds_dirac_h1_closed_form():
    sp = critical_speeds(Dirac(0.0, 1.0), 2.0, 1.0)
    root = math.sqrt(math.log(2.0))
    assert sp.c_plus == pytest.approx(root, abs=1e-10)
    assert sp.lambda_plus == pytest.approx(root, abs=1e-10)


def test_polish_speed_newton_from_three_starts():
    # independent 2-D Newton on (c, lambda) from separated seeds
    root = math.sqrt(math.log(2.0))
    kern = Dirac(0.0, 1.0)
    for c0, lam0 in ((0.5, 0.5), (1.2, 1.0), (0.9, 0.6)):
        c, lam, r_val, r_slope = polish_speed(kern, 2.0, 1.0, c0, lam0)
        assert c == pytest.approx(root, abs=1e-10)
        assert lam == pytest.approx(root, abs=1e-10)
        assert abs(r_val) < 1e-12 and abs(r_slope) < 1e-12


@pytest.mark.parametrize("kern", [Gaussian(0.0, 1.0, 1.0), Dirac(0.0, 1.0),
                                  UniformKernel(1.0)],
                         ids=["gaussian", "dirac", "uniform"])
def test_speeds_symmetric_kernel_antisymmetry(kern):
    sp = critical_speeds(kern, 2.0, 1.0)
    assert sp.c_minus == pytest.approx(-sp.c_plus, abs=1e-10)
    assert sp.lambda_minus == pytest.approx(-sp.lambda_plus, abs=1e-10)
    assert max(abs(r) for r in sp.residuals) < 1e-9


def test_speeds_gaussian_frozen_values():
    sp = critical_speeds(Gaussian(0.0, 1.0, 1.0), 2.0, 1.0)
    assert sp.c_plus == pytest.approx(1.0370788438042333, abs=1e-10)
    assert sp.lambda_plus == pytest.approx(0.7159914470451569, abs=1e-10)


def test_speeds_decrease_under_rightward_shift():
    base = Gaussian(0.0, 1.0, 1.0)
    c_plus = [critical_speeds(base.shifted(s), 2.0, 1.0).c_plus
              for s in (0.0, 1.0, 2.0, 3.0)]
    assert all(b < a for a, b in zip(c_plus, c_plus[1:]))
    assert c_plus[2] > 0.0 > c_plus[3]  # the same-sign regime opens here


def test_speeds_wide_gaussian_matches_closed_form():
    # h = 0: c(lam) = (lam^2 - 1 + 2 e^{200 lam^2}) / lam in closed form;
    # its minimiser lam ~ 0.04 is small against the kernel width 20
    sp = critical_speeds(Gaussian(0.0, 20.0, 1.0), 2.0, 0.0)
    best = minimize_scalar(
        lambda lam: (lam * lam - 1.0 + 2.0 * math.exp(200.0 * lam * lam))
        / lam, bounds=(1e-3, 0.5), method="bounded",
        options={"xatol": 1e-12})
    assert sp.c_plus == pytest.approx(best.fun, rel=1e-10)
    assert sp.lambda_plus == pytest.approx(best.x, rel=1e-6)
    assert sp.c_minus == pytest.approx(-best.fun, rel=1e-10)


def test_speeds_refuse_mass_too_small_for_growth():
    with pytest.raises(ConfigError, match="kernel mass must exceed 1"):
        critical_speeds(Gaussian(0.0, 1.0, 0.4), 2.0, 1.0)


def test_speeds_refuse_non_finite_polish():
    # the grid minimum is finite, but Newton overflows from it: NaN
    # residuals must fail the 1e-10 gate, not slip past the comparison,
    # and the message names the fields behind the overflow
    with np.errstate(all="ignore"), \
            pytest.raises(ConfigError, match="stalled.*'gprime0'.*'kernel'"):
        critical_speeds(Dirac(1e5, 1.0), 1e300, 0.0)


def test_speeds_solve_at_a_long_delay():
    # at h = 1e16 the root tau(lam) is about 1e-16 while re_mu = lam^2 - 1
    # is of order 1: read as re_mu + e^s / h it cancelled, and the speed
    # polish stalled
    sp = critical_speeds(Gaussian(0.0, 1.0, 1.0), 2.0, 1e16)
    assert max(abs(r) for r in sp.residuals) <= 1e-10
    assert sp.c_minus < 0.0 < sp.c_plus


_FAMILIES = {
    "dirac": lambda w, s, m: Dirac(s, m),
    "gaussian": lambda w, s, m: Gaussian(s, w, m),
    "laplace": lambda w, s, m: LaplaceKernel(1.0 / w, s, m),
    "uniform": lambda w, s, m: UniformKernel(w, s, m),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)),
       width=st.floats(0.2, 3.0), shift=st.floats(-3.0, 3.0),
       mass=st.floats(0.5, 2.0),
       h=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
       growth=st.floats(1.2, 6.0))
def test_speeds_are_global_extrema_of_tilt_speed(family, width, shift, mass,
                                                 h, growth):
    # growth = g'(0) * mass > 1; c(lam) = tau(lam) / lam with tau the
    # Halanay root of tau = lam^2 - 1 + g'(0) L(lam) e^{-h tau}
    kern = _FAMILIES[family](width, shift, mass)
    gprime0 = growth / mass
    sp = critical_speeds(kern, gprime0, h)
    assert max(abs(r) for r in sp.residuals) < 1e-10
    edge = min(kern.domain()[1], 10.0)
    lam = np.linspace(1e-3 * edge, edge, 20001)[:-1]
    for sign, c in ((1.0, sp.c_plus), (-1.0, sp.c_minus)):
        tau = halanay_root_grid(lam * lam - 1.0,
                                gprime0 * np.real(kern.laplace(sign * lam)),
                                h)
        dense = np.min(tau / lam)  # min of sign * c(sign * lam)
        assert sign * c <= dense + 1e-9 * (1.0 + abs(c))


def test_speed_pair_validates_ordering():
    with pytest.raises(ConfigError):
        SpeedPair(c_minus=1.0, c_plus=-1.0, lambda_minus=-1.0,
                  lambda_plus=1.0, residuals=())
    with pytest.raises(ConfigError):
        SpeedPair(c_minus=-1.0, c_plus=1.0, lambda_minus=0.5,
                  lambda_plus=1.0, residuals=())


def test_char_params_validation():
    with pytest.raises(ConfigError):
        CharParams(m=0.0, p=0.0, h=-1.0)
    with pytest.raises(ConfigError):
        CharParams(m=math.nan, p=0.0, h=1.0)
