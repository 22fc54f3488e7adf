"""KPP integrator: equilibria, positivity, level sets, comparison certificate."""

import math

import numpy as np
import pytest

from delaykpp import (ConfigError, Dirac, Gaussian, Grid, LaplaceKernel,
                      Nicholson, UniformKernel, comparison_run,
                      critical_speeds, level_set, solve_kpp, trace_levels)
from delaykpp import nonlinear
from delaykpp.experiments import tune_kernel_shift
from delaykpp.nonlinear import (_UNDERFLOW, _etd_stencils, _kernel_applier,
                                _phi_dc)

GRID = Grid(32.0, 256)


def test_equilibrium_is_discrete_fixed_point():
    # the DC weights sum to 1 exactly, so u = kappa survives to the last bit
    birth = Nicholson(2.0, 1.0)
    with pytest.warns(RuntimeWarning):  # constant data sit on the edge
        traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), birth, GRID, birth.kappa,
                         T=3.0, h=1.0, n_h=32)
    assert np.max(np.abs(traj.fields[-1] - birth.kappa)) < 1e-14
    assert traj.clamp_count == 0


def test_zero_stays_zero():
    traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), GRID, 0.0,
                     T=2.0, h=0.5, n_h=16)
    assert np.max(np.abs(traj.fields)) == 0.0


def test_zero_mass_kernel_has_no_births():
    # u_t = u_xx - u: the heat flow keeps the integral, the death term
    # takes e^{-T} of it
    u0 = 0.5 * np.exp(-GRID.x ** 2)
    traj = solve_kpp(Gaussian(0.0, 1.0, 0.0), Nicholson(2.0), GRID, u0,
                     T=2.0, h=0.5, n_h=16)
    assert np.sum(traj.fields[-1]) == pytest.approx(
        math.exp(-2.0) * np.sum(u0), rel=1e-10)


def test_positivity_preserved():
    grid = Grid(64.0, 512)
    u0 = 0.5 * np.exp(-grid.x ** 2)
    traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), grid, u0,
                     T=4.0, h=1.0, n_h=32)
    assert np.min(traj.fields) >= 0.0
    assert traj.clamp_count == 0


def test_blowup_aborts_with_last_healthy_time():
    from delaykpp import LinearBirth
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="lost finiteness"):
            solve_kpp(Dirac(0.0, 1.0), LinearBirth(1e6), GRID, 1e300,
                      T=20.0, h=0.5, n_h=8)


def test_input_validation():
    with pytest.raises(ConfigError, match="final time"):
        solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0), GRID, 0.1, T=0.0, h=1.0)
    with pytest.raises(ConfigError, match="nonnegative"):
        solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0), GRID, 0.1, T=1.0, h=-1.0)
    with pytest.raises(ConfigError, match="n_h"):
        solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0), GRID, 0.1, T=1.0, h=1.0,
                  n_h=0)
    with pytest.raises(ConfigError, match="single initial profile"):
        solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0), GRID,
                  lambda s: np.zeros(GRID.n), T=1.0, h=0.0)


def test_resume_from_final_history_is_exact():
    birth = Nicholson(2.0, 1.0)
    kern = Gaussian(0.0, 1.0, 1.0)
    u0 = 0.4 * np.exp(-GRID.x ** 2)
    full = solve_kpp(kern, birth, GRID, u0, T=2.0, h=0.5, n_h=16,
                     out_every=8)
    part = solve_kpp(kern, birth, GRID, u0, T=1.0, h=0.5, n_h=16,
                     out_every=8, return_history=True)
    resumed = solve_kpp(kern, birth, GRID, part.final_history, T=1.0,
                        h=0.5, n_h=16, out_every=8)
    np.testing.assert_array_equal(resumed.fields[-1], full.fields[-1])


def test_etd_stencils_positive_with_exact_dc():
    for dt in (0.05, 0.01):
        p0, a, b, ab = _etd_stencils(dt, 0.125, 4096)
        p0_dc, a_dc, b_dc, ab_dc = _phi_dc(dt)
        for st, dc in ((p0, p0_dc), (a, a_dc), (b, b_dc), (ab, ab_dc)):
            assert np.all(st >= 0.0)
            assert np.sum(st) == pytest.approx(dc, rel=1e-14)
        assert p0_dc + a_dc + b_dc == pytest.approx(1.0, abs=1e-15)


def test_kernel_applier_dirac_is_exact_roll():
    g = Grid(32.0, 256)
    shift = 16 * g.dx
    apply_k = _kernel_applier(Dirac(shift, 0.7), g)
    G = np.exp(-g.x ** 2)
    out = apply_k(G)
    np.testing.assert_array_equal(out, 0.7 * np.roll(G, 16))


def _captured_weights(monkeypatch, apply_k, G):
    """Result of apply_k(G) and the weights it passed to convolve1d."""
    seen, original = [], nonlinear.convolve1d

    def recording(field, weights, **kwargs):
        seen.append(weights)
        return original(field, weights, **kwargs)

    monkeypatch.setattr(nonlinear, "convolve1d", recording)
    out = apply_k(G)
    (weights,) = seen
    return out, weights


# (kernel, taps in its window); on the grid below, dx = 0.125
SAMPLED_KERNELS = [
    pytest.param(Gaussian(0.3, 0.9, 1.0), 134, id="gauss+0.3"),
    pytest.param(Gaussian(3.5035, 0.9, 1.0), 135, id="gauss+3.5035"),
    pytest.param(Gaussian(-7.0, 0.9, 1.0), 135, id="gauss-7"),
    # support right of offset 0 only: padded with zeros down to offset 0
    pytest.param(Gaussian(20.0, 0.9, 1.0), 228, id="gauss+20"),
    pytest.param(LaplaceKernel(2.0, 1.5, 1.0), 349, id="laplace+1.5"),
    pytest.param(UniformKernel(1.7, -2.3, 1.0), 32, id="uniform-2.3"),
]


# the kinked kernels' Riemann sums miss their mass by O(dx); discretize
# warns and renormalizes, as the reference below does
@pytest.mark.filterwarnings("ignore:kernel truncation")
@pytest.mark.parametrize("kern,taps", SAMPLED_KERNELS)
def test_kernel_applier_matches_spectral_convolution(monkeypatch, kern,
                                                     taps):
    g = Grid(64.0, 512)
    apply_k = _kernel_applier(kern, g)
    G = np.exp(-(g.x / 3.0) ** 2) * (1.0 + 0.2 * np.sin(g.x))
    got, weights = _captured_weights(monkeypatch, apply_k, G)
    assert weights.size == taps
    k = np.roll(_sampled(kern, g), -g.n // 2)
    k *= kern.mass / (np.sum(k) * g.dx)
    want = np.fft.ifft(np.fft.fft(G) * np.fft.fft(k)).real * g.dx
    np.testing.assert_allclose(got, want, atol=1e-9 * np.max(np.abs(want)))


def test_shifted_kernel_stencil_keeps_only_the_drop_rule_offsets(
        monkeypatch):
    # extinction-tuned: the tuned Gaussian on n = 8192 over L = 1408; the
    # drop rule keeps offsets -34..74, where a window symmetric about 0
    # would take 149 taps
    birth = Nicholson(2.0, 1.0)
    kern, shift = tune_kernel_shift(Gaussian(0.0, 1.0, 1.0), birth.gprime0,
                                    1.0, margin=0.5)
    assert shift == pytest.approx(3.5035, abs=1e-4)
    g = Grid(1408.0, 8192)
    G = np.exp(-(g.x / 3.0) ** 2)
    _, weights = _captured_weights(monkeypatch, _kernel_applier(kern, g), G)
    assert weights.size == 109
    assert np.sum(weights) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("h", [1.0, 0.0])
def test_no_subnormal_values_are_stored(h):
    # compact data grow tails that, unfloored, run down through the
    # subnormal range; every stored and pushed entry is 0 or >= _UNDERFLOW
    grid = Grid(256.0, 512)
    u0 = np.where(np.abs(grid.x) < 2.0, 0.5, 0.0)
    traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), grid, u0,
                     T=2.0, h=h, n_h=16, return_history=h > 0.0)
    stored = [traj.fields]
    if h > 0.0:
        stored.append(traj.final_history[0])
    for values in stored:
        tiny = (values != 0.0) & (np.abs(values) < _UNDERFLOW)
        assert not np.any(tiny)


def test_h0_convolutions_see_no_subnormal_input(monkeypatch):
    # the h = 0 predictor is floored like every stored profile, so no
    # convolution reads a subnormal entry (unfloored: 290 of them here)
    seen = []
    inner = nonlinear.convolve1d
    normal = np.finfo(float).tiny

    def counting(field, *args, **kwargs):
        mag = np.abs(field)
        seen.append(np.count_nonzero((mag > 0.0) & (mag < normal)))
        return inner(field, *args, **kwargs)

    monkeypatch.setattr(nonlinear, "convolve1d", counting)
    grid = Grid(512.0, 1024)
    u0 = np.where(np.abs(grid.x) < 2.0, 0.5, 0.0)
    solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), grid, u0, T=5.0, h=0.0)
    assert seen and sum(seen) == 0


def _sampled(kern, g):
    return np.asarray(kern.density(g.x), dtype=float)


def test_level_set_interpolation_and_nan_sentinels():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    vals = np.array([0.0, 1.0, 1.0, 0.25, 0.0])
    lc = level_set(vals, x, 0.5)
    assert lc.m_minus == pytest.approx(0.5)
    assert lc.m_plus == pytest.approx(2.0 + 0.75 / 0.75 * (2.0 / 3.0), rel=1e-12)
    assert lc.attained_minus and lc.attained_plus

    none = level_set(np.array([0.1, 0.2, 0.1]), x[:3], 0.5)
    assert math.isnan(none.m_minus) and math.isnan(none.m_plus)

    # still above the level at the left boundary: that side is undefined
    half = level_set(np.array([0.9, 0.8, 0.2]), x[:3], 0.5)
    assert math.isnan(half.m_minus)
    assert half.m_plus == pytest.approx(1.5)
    with pytest.raises(ConfigError, match="level must be positive"):
        level_set(vals, x, 0.0)


def test_trace_levels_columns_and_t0_nan():
    birth = Nicholson(2.0, 1.0)
    kern = Dirac(0.0, 1.0)
    grid = Grid(128.0, 1024)
    u0 = np.where(np.abs(grid.x) < 2.0, 0.5 * birth.kappa, 0.0)
    traj = solve_kpp(kern, birth, grid, u0, T=6.0, h=1.0, n_h=32,
                     out_every=32)
    speeds = critical_speeds(kern, birth.gprime0, 1.0)
    tr = trace_levels(traj, 0.5 * birth.kappa, speeds)
    assert math.isnan(tr.M[0]) and math.isnan(tr.M_star[0])  # log 0
    lc = level_set(traj.fields[-1], grid.x, tr.beta)
    assert tr.m_minus[-1] == pytest.approx(lc.m_minus, abs=1e-14)
    assert tr.m_plus[-1] == pytest.approx(lc.m_plus, abs=1e-14)
    # symmetric spread from symmetric data
    assert tr.m_plus[-1] == pytest.approx(-tr.m_minus[-1], abs=1e-8)


def test_fisher_front_speed_two_percent():
    # h = 0 with point kernel and slope-2 birth linearizes to u_xx + u, so
    # the right front moves at speed 2 with a (3/2) log t lag
    birth = Nicholson(2.0, 1.0)
    grid = Grid(256.0, 2048)
    u0 = np.where(np.abs(grid.x) < 2.0, birth.kappa, 0.0)
    traj = solve_kpp(Dirac(0.0, 1.0), birth, grid, u0, T=40.0, h=0.0)
    beta = 0.5 * birth.kappa
    xs = {}
    for t_target in (20.0, 40.0):
        i = int(np.argmin(np.abs(traj.times - t_target)))
        xs[t_target] = (level_set(traj.fields[i], grid.x, beta).m_plus,
                        traj.times[i])
    (x1, t1), (x2, t2) = xs[20.0], xs[40.0]
    c_fit = (x2 - x1 + 1.5 * math.log(t2 / t1)) / (t2 - t1)
    assert c_fit == pytest.approx(2.0, rel=0.02)


def test_comparison_certificate_clean_and_constants():
    birth = Nicholson(2.0, 1.0)
    kern = Gaussian(0.0, 1.0, 1.0)
    grid = Grid(80.0, 512)
    lam = 0.3
    u0 = 0.9 * birth.kappa * np.exp(-(grid.x / 2.0) ** 2)
    rep = comparison_run(kern, birth, grid, u0, T=5.0, h=1.0, lam=lam,
                         n_h=32)
    assert rep.max_violation == 0.0
    assert rep.envelope_violation == 0.0
    q1 = 1.0 - lam * lam
    theta0 = 1.0 + 2.0 * math.exp(q1) * float(np.real(kern.laplace(lam)))
    assert rep.theta0 == pytest.approx(theta0, rel=1e-12)
    assert rep.theta == pytest.approx(theta0 * math.exp(q1), rel=1e-12)
    assert rep.lam == lam


def test_comparison_survives_the_floor_at_different_scales():
    # v's peak is 600 times u's, but its far tail is u's tail: the floor is
    # absolute, hence monotone, so u <= v still gives floor(u) <= floor(v)
    # there; a floor relative to each run's peak would cut v's tail first
    birth = Nicholson(2.0, 1.0)
    grid = Grid(256.0, 512)
    u0 = 1e-3 * np.exp(-(grid.x / 4.0) ** 2)
    v0 = u0 + 0.9 * birth.kappa * np.exp(-grid.x ** 2)
    rep = comparison_run(Gaussian(0.0, 1.0, 1.0), birth, grid, u0, T=3.0,
                         h=1.0, lam=0.3, n_h=16, v0=v0)
    assert rep.max_violation == 0.0


def test_comparison_guards():
    birth = Nicholson(2.0, 1.0)
    grid = Grid(32.0, 256)
    u0 = 0.5 * np.exp(-grid.x ** 2)
    with pytest.raises(ConfigError, match="needs h > 0"):
        comparison_run(Dirac(0.0, 1.0), birth, grid, u0, T=1.0, h=0.0,
                       lam=0.3)
    with pytest.raises(ConfigError, match="transform domain"):
        comparison_run(LaplaceKernel(0.5, 0.0, 1.0), birth, grid, u0,
                       T=1.0, h=1.0, lam=0.9)
    with pytest.raises(ConfigError, match="ordering of initial data"):
        comparison_run(Dirac(0.0, 1.0), birth, grid, u0, T=1.0, h=1.0,
                       lam=0.3, v0=0.5 * u0)

    class OverTangent:  # claims slope 1/2 but is the identity map
        gprime0 = 0.5

        def __call__(self, u):
            return np.asarray(u, dtype=float)

    with pytest.raises(ConfigError, match="sub-tangential"):
        comparison_run(Dirac(0.0, 1.0), OverTangent(), grid, u0, T=1.0,
                       h=1.0, lam=0.3)
