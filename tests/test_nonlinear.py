"""KPP integrator: equilibria, positivity, level sets, comparison certificate."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from delaykpp import (CharParams, ConfigError, Dirac, Gaussian, Grid,
                      LaplaceKernel, LevelScan, LinearCap, Nicholson,
                      UniformKernel, critical_speeds, level_set, solve_kpp,
                      solve_linear, trace_levels)
from delaykpp import nonlinear
from delaykpp.characteristic import tune_kernel_shift
from delaykpp.nonlinear import (_UNDERFLOW, _etd_stencils, _kernel_applier,
                                _phi_dc)
from oracles import comparison_run

GRID = Grid(32.0, 256)


def test_equilibrium_is_discrete_fixed_point():
    # the DC weights sum to 1 exactly, so u = kappa is a fixed point up to
    # the rounding of the stencil sums; with these n_h and p it settles
    # 50.5 eps kappa = 7.8e-15 away, the worst of the configurations
    # _phi_dc names, so the 1e-14 gate keeps about 1.3x headroom on the
    # one x86 CPU where that was measured (the gemm kernel sets the order)
    birth = Nicholson(2.0, 1.0)
    with pytest.warns(RuntimeWarning):  # constant data sit on the edge
        traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), birth, GRID, birth.kappa,
                         T=3.0, h=1.0, n_h=32)
    assert np.max(np.abs(traj.fields[-1] - birth.kappa)) < 1e-14
    assert traj.clamp_count == 0


def test_constant_state_does_not_drift():
    # the rounding of each step moves kappa by an ulp or two; the step
    # contracts towards kappa, so the deviation settles during the first
    # two delays and then stays where it is
    birth = Nicholson(2.0, 1.0)
    with pytest.warns(RuntimeWarning):  # constant data sit on the edge
        traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), birth, GRID, birth.kappa,
                         T=40.0, h=1.0, n_h=32, out_every=8)
    dev = np.max(np.abs(traj.fields - birth.kappa), axis=1)
    assert np.max(dev) < 1e-14
    settled = traj.times > 2.0
    assert np.max(dev[settled]) <= np.max(dev[~settled])


_SAME_BYTES = """
import hashlib
import numpy as np
from delaykpp import Gaussian, Grid, Nicholson, solve_kpp
grid = Grid(256.0, 2048)
u0 = np.where(np.abs(grid.x) < 2.0, 0.5, 0.0)
traj = solve_kpp(Gaussian(1.5, 1.0, 1.0), Nicholson(2.0, 1.0), grid, u0,
                 T=2.0, h=1.0, n_h=16)
print(hashlib.sha256(traj.fields.tobytes()).hexdigest())
"""


def test_fields_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(nonlinear.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SAME_BYTES], env=env,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=120)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the abort
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
    for h in (0.0, 1.0):  # an initial profile, never a time history
        with pytest.raises(ConfigError, match="not a callable"):
            solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0), GRID,
                      lambda s: np.zeros(GRID.n), T=1.0, h=h)


def test_collector_sees_exactly_the_stored_snapshots(monkeypatch):
    # signed data, so that clamps are counted; of the 74 steps to T = 2.3,
    # out_every 8 keeps 0, 8, ..., 72 and the last one, off that grid.
    # The clamp count is the documented rule applied to every input of
    # the clamped birth: entries below -1e-13 max(1, max|v|)
    birth = Nicholson(2.0, 1.0)
    kern = Gaussian(0.0, 1.0, 1.0)
    u0 = 0.4 * np.exp(-GRID.x ** 2) - 0.2 * np.exp(-(GRID.x - 3.0) ** 2)
    clamps = []
    original = nonlinear._clamped_birth

    def recording(birth, v, counter):
        tol = 1e-13 * max(1.0, float(np.max(np.abs(v))))
        clamps.append(int(np.count_nonzero(v < -tol)))
        return original(birth, v, counter)

    monkeypatch.setattr(nonlinear, "_clamped_birth", recording)
    stored = solve_kpp(kern, birth, GRID, u0, T=2.3, h=0.5, n_h=16,
                       out_every=8)
    monkeypatch.undo()
    seen = []
    collected = solve_kpp(kern, birth, GRID, u0, T=2.3, h=0.5, n_h=16,
                          out_every=8,
                          collect=lambda t, u: seen.append((t, u)))
    assert stored.clamp_count == sum(clamps) > 0
    assert [t for t, _ in seen] == stored.times.tolist()
    np.testing.assert_array_equal(np.array([u for _, u in seen]),
                                  stored.fields)
    assert collected.times.size == 0 and collected.fields.size == 0
    assert collected.clamp_count == stored.clamp_count
    assert collected.edge_fraction == stored.edge_fraction


def test_delayed_run_holds_one_delay_of_value_rows():
    # the step reads u(t - h) only through g, so the history is n_h + 1
    # rows of n values and nothing else; a ring that also held derivative
    # rows would peak at 2.1 rings.  The slack of a quarter ring covers the
    # stencils and the per-step temporaries (together 0.08 ring at
    # n = 1024, n_h = 128); the warm-up run builds the cached bands
    grid = Grid(32.0, 1024)
    n_h = 128
    ring = (n_h + 1) * grid.n * 8
    args = (Gaussian(0.0, 1.0, 1.0), Nicholson(2.0, 1.0), grid,
            0.5 * np.exp(-grid.x ** 2))
    kwargs = dict(T=0.5, h=1.0, n_h=n_h, collect=lambda t, u: None)
    solve_kpp(*args, **kwargs)
    tracemalloc.start()
    try:
        solve_kpp(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring < peak < ring + ring // 4


# The two solvers in the linear regime.  With g(u) = min(2u, 1) and data
# below cap/slope = 1/2, solve_kpp solves u_t = u_xx - u + 2 (k0 * u)(t - h)
# exactly: (*) with m = 0, p = -1 and the kernel 2 k0, which solve_linear
# solves spectrally in x and to fourth order in dt (n_h 256 here, exact at
# h = 0).  The error is max |u_kpp - u_lin| / max |u_lin| at T.  The n
# ladder 512, 1024, 2048 runs at n_h 128 (dt = 1/128, above dx^2/3 on
# every rung, see _etd_stencils), the n_h ladder 4, 8, 16 at n 4096.  The
# band [1.8, 2.2] for every observed order is the scheme's order (the
# stencils and the exponential trapezoid are second order), not a fit to
# these errors; the two bounds below keep 1.4x and 2x over the errors
# measured when the test was written.
_XC_GRID_L, _XC_T = 64.0, 4.0


def _linear_regime_errors(n: int, h: float, ladder=(None,)) -> list:
    """The error of a KPP run at each n_h of ladder (None at h = 0)
    against one linear reference on n points."""
    grid = Grid(_XC_GRID_L, n)
    u0 = 1e-3 * np.exp(-(grid.x / 2.0) ** 2)
    kern = Gaussian(0.0, 1.0, 1.0)
    ref = solve_linear(CharParams(m=0.0, p=-1.0, h=h), kern.scaled(2.0),
                       grid, u0, _XC_T, 256 if h > 0.0 else None).fields[-1]
    errors = []
    for n_h in ladder:
        last = []
        traj = solve_kpp(kern, LinearCap(2.0, 1.0), grid, u0, _XC_T, h, n_h,
                         out_every=1 << 20,  # keeps t = 0 and T only
                         collect=lambda t, u: last.append(u))
        assert traj.clamp_count == 0 and np.max(last[-1]) < 0.5  # g linear
        errors.append(np.max(np.abs(last[-1] - ref)) / np.max(np.abs(ref)))
    return errors


def test_kpp_step_matches_the_linear_solver_in_the_linear_regime():
    space = [_linear_regime_errors(n, 1.0, (128,))[0]
             for n in (512, 1024, 2048)]
    time = _linear_regime_errors(4096, 1.0, (4, 8, 16))
    for errors in (space, time):
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)
    # dx 1/16, dt 1/128: 3.5e-5 when the ladders were fixed
    assert space[1] < 5e-5
    # h = 0: the linear solve is exact, and the KPP step (dt 1/64, which
    # n_h cannot refine) reads its predictor; 5.0e-4 at n 512
    assert _linear_regime_errors(512, 0.0)[0] < 1e-3


def test_etd_stencils_positive_with_exact_dc():
    for dt in (0.05, 0.01):
        p0, a, b, ab = _etd_stencils(dt, 0.125, 4096)
        p0_dc, a_dc, b_dc, ab_dc = _phi_dc(dt)
        for st, dc in ((p0, p0_dc), (a, a_dc), (b, b_dc), (ab, ab_dc)):
            assert np.all(st >= 0.0)
            assert np.sum(st) == pytest.approx(dc, rel=1e-14)
        assert p0_dc + a_dc + b_dc == pytest.approx(1.0, abs=1e-15)


def test_delay_past_every_tap_keeps_the_stencil_window():
    # at dt ~ 1e299 e^{-dt} underflows and the mixture taps overflow, so
    # no A, B or AB tap is above the drop rule: each stencil keeps its
    # whole window of n - 1 taps, and P0 = e^{-dt} G is exactly 0
    with np.errstate(all="ignore"):
        stencils = _etd_stencils(1e300 / 16, GRID.dx, GRID.n)
    assert [s.size for s in stencils] == [GRID.n - 1] * 4
    np.testing.assert_array_equal(stencils[0], 0.0)
    # a run at that delay would take no step before T = 3: refused
    with pytest.raises(ConfigError, match="'T' = 3, 'h' = 1e.300 and "
                       "'n_h' = 16 need"):
        solve_kpp(Dirac(0.0, 1.0), Nicholson(2.0, 1.0), GRID, 0.5, T=3.0,
                  h=1e300, n_h=16)


def test_kernel_applier_dirac_is_exact_roll():
    g = Grid(32.0, 256)
    G = np.exp(-g.x ** 2)
    for cells in (16, 0, -5):
        apply_k = _kernel_applier(Dirac(cells * g.dx, 0.7), g)
        np.testing.assert_array_equal(apply_k(G), 0.7 * np.roll(G, cells))


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


# (taps, points): odd and even tap counts, n not a multiple of the row
# block, and n below block + taps
CONVOLVE_SIZES = [(1, 40), (2, 40), (24, 1000), (25, 1000), (109, 1000),
                  (110, 150), (25, 50)]


@pytest.mark.parametrize("m,n", CONVOLVE_SIZES)
def test_convolve1d_matches_scipy_at_every_origin(m, n):
    from scipy.ndimage import convolve1d as reference

    rng = np.random.default_rng(m * n)
    field = 0.1 + rng.random(n)
    weights = rng.random(m)
    for origin in range(-(m // 2), (m - 1) // 2 + 1):
        got = nonlinear.convolve1d(field, weights, origin=origin)
        want = reference(field, weights, mode="wrap", origin=origin)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("m,n", CONVOLVE_SIZES)
def test_convolve1d_is_the_gathered_band_product_bit_for_bit(m, n):
    # rows gathered through the defining periodic index and multiplied by
    # the same band in one gemm: the sliced gather rounds the same
    rng = np.random.default_rng(m * n + 1)
    field = rng.standard_normal(n)
    weights = rng.random(m)
    b = max(32, 1 << (m - 1).bit_length())
    k = b + m - 1
    band = np.zeros((k, b))
    for t in range(b):
        band[t:t + m, t] = weights[::-1]
    for origin in range(-(m // 2), (m - 1) // 2 + 1):
        start = m // 2 + origin - (m - 1)
        index = (np.arange(0, n, b)[:, None] + start + np.arange(k)) % n
        want = np.matmul(field[index], band).ravel()[:n]
        got = nonlinear.convolve1d(field, weights, origin=origin)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("m,n", [(1, 40), (25, 1000), (110, 150)])
def test_convolve1d_takes_origins_beyond_the_window(m, n):
    # a one-sided stencil is applied with offset 0 outside its taps, an
    # origin scipy refuses; compare with the defining sum
    rng = np.random.default_rng(m + n)
    field = 0.1 + rng.random(n)
    weights = rng.random(m)
    i = np.arange(n)
    for origin in (-(m // 2) - 1, -(m // 2) - 90, (m - 1) // 2 + 1,
                   (m - 1) // 2 + 90):
        want = sum(weights[j] * field[(i + m // 2 + origin - j) % n]
                   for j in range(m))
        got = nonlinear.convolve1d(field, weights, origin=origin)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_convolve1d_keeps_far_tails_relative():
    # each output is a sum of local products, so entries next to an O(1)
    # half keep their relative accuracy at 1e-200; a global FFT spreads
    # 1e-17 of the peak over them
    from scipy.ndimage import convolve1d as reference

    n = 1000
    field = np.where(np.arange(n) < n // 2, 1.0, 1e-200)
    field *= 1.0 + 0.5 * np.sin(np.arange(n))
    weights = np.exp(-np.linspace(-3.0, 3.0, 25) ** 2)
    got = nonlinear.convolve1d(field, weights)
    want = reference(field, weights, mode="wrap")
    tiny = want < 1e-150
    assert np.count_nonzero(tiny) > 400
    np.testing.assert_allclose(got[tiny], want[tiny], rtol=1e-13, atol=0.0)
    taps = np.zeros(n)
    taps[np.arange(-12, 13) % n] = weights
    fft = np.fft.irfft(np.fft.rfft(field) * np.fft.rfft(taps), n)
    assert np.max(np.abs(fft[tiny] / want[tiny] - 1.0)) > 1.0


# (kernel, taps in its window); on the grid below, dx = 0.125
SAMPLED_KERNELS = [
    pytest.param(Gaussian(0.3, 0.9, 1.0), 134, id="gauss+0.3"),
    pytest.param(Gaussian(3.5035, 0.9, 1.0), 135, id="gauss+3.5035"),
    pytest.param(Gaussian(-7.0, 0.9, 1.0), 135, id="gauss-7"),
    # support right of offset 0 only: no zeros down to offset 0
    pytest.param(Gaussian(20.0, 0.9, 1.0), 135, id="gauss+20"),
    pytest.param(LaplaceKernel(2.0, 1.5, 1.0), 349, id="laplace+1.5"),
    # support left of offset 0 only
    pytest.param(UniformKernel(1.7, -2.3, 1.0), 27, id="uniform-2.3"),
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
                                    1.0, margin=0.5, max_shift=32.0)
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
    # out_every=1 stores every profile the run pushes
    traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), grid, u0,
                     T=2.0, h=h, n_h=16, out_every=1)
    tiny = (traj.fields != 0.0) & (np.abs(traj.fields) < _UNDERFLOW)
    assert not np.any(tiny)


@pytest.mark.parametrize("collected", [False, True],
                         ids=["stored", "collected"])
@pytest.mark.parametrize("h", [1.0, 0.0])
def test_solve_kpp_never_writes_u0(h, collected):
    # the run floors a copy of u0: the caller's array, with entries below
    # _UNDERFLOW of either sign, keeps every bit, and the t = 0 snapshot
    # is its floored copy
    u0 = 0.4 * np.exp(-GRID.x ** 2)
    u0[[3, 5]] = 1e-300, -1e-300
    before = u0.copy()
    seen = []
    traj = solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), GRID, u0,
                     T=0.5, h=h, n_h=16, out_every=1,
                     collect=(lambda t, u: seen.append(u)) if collected
                     else None)
    assert u0.tobytes() == before.tobytes()
    floored = np.where(np.abs(before) < _UNDERFLOW, 0.0, before)
    first = seen[0] if collected else traj.fields[0]
    assert first.tobytes() == floored.tobytes()


def test_clamped_birth_passes_nan_and_clamps_only_negatives():
    # a NaN hides the sign test v.min() >= 0; with no negative entry
    # nothing is counted and the values are the birth of v itself
    birth = Nicholson(2.0)
    counter = [0]
    got = nonlinear._clamped_birth(birth, np.array([np.nan, 0.3, 0.1]),
                                   counter)
    assert counter == [0]
    assert got.tobytes() == birth(np.array([np.nan, 0.3, 0.1])).tobytes()
    got = nonlinear._clamped_birth(birth, np.array([np.nan, -0.3, 0.1]),
                                   counter)
    assert counter == [1]
    assert got.tobytes() == birth(np.array([np.nan, 0.0, 0.1])).tobytes()


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


def test_h0_step_applies_p0_once(monkeypatch):
    # per step: the kernel on u and on the predictor, and the ETD stencils
    # P0 u (shared by predictor and corrector), AB F0, A F0 and B F1
    calls = []
    inner = nonlinear.convolve1d

    def counting(field, *args, **kwargs):
        calls.append(field)
        return inner(field, *args, **kwargs)

    monkeypatch.setattr(nonlinear, "convolve1d", counting)
    grid = Grid(128.0, 512)
    u0 = 0.5 * np.exp(-grid.x ** 2)
    solve_kpp(Gaussian(0.0, 1.0, 1.0), Nicholson(2.0), grid, u0, T=1.0,
              h=0.0)
    assert len(calls) == 6 * 64  # dt = 1/64


def _sampled(kern, g):
    return np.asarray(kern.density(g.x), dtype=float)


def test_level_set_interpolation_and_nan_sentinels():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    vals = np.array([0.0, 1.0, 1.0, 0.25, 0.0])
    lc = level_set(vals, x, 0.5)
    assert lc.m_minus == pytest.approx(0.5)
    assert lc.m_plus == pytest.approx(2.0 + 0.75 / 0.75 * (2.0 / 3.0), rel=1e-12)
    assert math.isfinite(lc.m_minus) and math.isfinite(lc.m_plus)

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
    scan = LevelScan(grid.x, 0.5 * birth.kappa)
    for t, u in zip(traj.times, traj.fields):
        scan(t, u)
    tr = trace_levels(scan, speeds)
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
    assert traj.n_h == 0  # no delay to divide
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
