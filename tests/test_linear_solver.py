"""Linear solver: mode-by-mode oracle, closed forms, and the FD cross-check."""

import math
import warnings

import numpy as np
import pytest

from delaykpp import (CharParams, ConfigError, Gaussian, Grid, TiltedKernel,
                      halanay_root, probe_value, solve_linear, tangency_solve,
                      tangency_limit_diagnostic, universal_bound_diagnostic,
                      gamma_zero)
from delaykpp import HistoryRing, linear_solver
from delaykpp.grids import _history_samples
from delaykpp.linear_solver import (_BLOCK_ELEMS, _flush, _phi,
                                    _rk4_delay_diag, _step_weights)
from oracles import scalar_dde_solve, solve_linear_fd, stepwise_delay_diag

DESK = CharParams(m=0.2, p=-1.2, h=1.0)
DESK_KERNEL = Gaussian(0.0, 1.0, 1.0)


def test_single_mode_matches_scalar_dde():
    # constant-in-time history cos(kx): each Fourier coefficient obeys the
    # scalar delay equation with mu = -k^2 + imk + p, kappa = khat(k)
    grid = Grid(32.0, 256)
    params = CharParams(m=0.3, p=-0.5, h=1.0)
    kern = Gaussian(0.0, 1.0, 1.0)
    k = grid.xi[4]
    u0 = np.cos(k * grid.x)
    with pytest.warns(RuntimeWarning):  # cos fills the whole domain
        traj = solve_linear(params, kern, grid, u0, T=2.0, n_h=64)

    mu = -k * k + 1j * params.m * k + params.p
    kap = complex(kern.fourier(np.array([k]))[0])
    _, w = scalar_dde_solve(mu, kap, 1.0, 1.0, T=2.0, dt=1.0 / traj.n_h)

    coeff = np.fft.fft(traj.fields[-1])[4] / (grid.n / 2.0)
    assert traj.times[-1] == pytest.approx(2.0)
    assert coeff == pytest.approx(w[-1], rel=1e-10)


def test_scalar_dde_exponential_solution_and_order():
    # history e^{lam s} with lam on the characteristic curve propagates as
    # e^{lam t}; halving dt shrinks the error by ~16 (order 4), which needs
    # second-order history derivatives at both ends of [-h, 0]
    lam = halanay_root(-1.0, 0.5, 1.0)
    assert lam == pytest.approx(-1.0 + 0.5 * np.exp(-lam), abs=1e-12)
    errs = []
    for n_h in (16, 32, 64):
        _, w = scalar_dde_solve(-1.0, 0.5, 1.0, lambda s: np.exp(lam * s),
                                T=3.0, dt=1.0 / n_h)
        errs.append(abs(w[-1] - np.exp(lam * 3.0)))
    assert errs[1] < 1e-8
    assert errs[0] > 12.0 * errs[1] > 144.0 * errs[2]


def test_scalar_dde_constant_history_is_fourth_order():
    # constant history: the derivative jumps at t = 0 from 0 to
    # mu + kappa, and the cell [0, dt] must be read with the right one
    _, ref = scalar_dde_solve(-1.0 + 0.5j, 0.8, 1.0, 1.0, T=5.0,
                              dt=1.0 / 1024)
    errs = []
    for n_h in (8, 16, 32, 64):
        _, w = scalar_dde_solve(-1.0 + 0.5j, 0.8, 1.0, 1.0, T=5.0,
                                dt=1.0 / n_h)
        errs.append(abs(w[-1] - ref[-1]))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse >= 12.0 * fine


def test_phi_branches_agree_at_the_seam():
    # Taylor series inside |z| < 1, recurrence outside: both sides of the
    # circle agree, and phi_k(0) = 1/k!
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 17))
    inner, outer = _phi((1.0 - 1e-12) * z), _phi((1.0 + 1e-12) * z)
    at0 = _phi(np.zeros(1, complex))
    assert at0[0][0] == 0.0  # e^0 - 1
    for k in range(1, 5):
        np.testing.assert_allclose(inner[k], outer[k], rtol=1e-11)
        assert at0[k][0] == 1.0 / math.factorial(k)


def test_scalar_dde_halanay_envelope():
    # constant history 1 stays below e^{tau t} for the decaying triple
    tau = halanay_root(-2.0, 1.0, 1.0)
    t, w = scalar_dde_solve(-2.0, 1.0, 1.0, 1.0, T=30.0, dt=1.0 / 32)
    assert tau < 0.0
    assert np.max(np.abs(w) * np.exp(-tau * t)) <= 1.0 + 1e-8


def test_scalar_dde_rejects_bad_dt():
    with pytest.raises(ConfigError, match="does not divide"):
        scalar_dde_solve(-1.0, 0.5, 1.0, 1.0, T=1.0, dt=0.3)


def test_h0_heat_closed_form():
    # zero-mass kernel and m = p = 0 reduce to the heat equation, where a
    # Gaussian profile stays Gaussian with variance growing linearly
    grid = Grid(64.0, 512)
    params = CharParams(m=0.0, p=0.0, h=0.0)
    kern = Gaussian(0.0, 1.0, 0.0)
    s0 = 1.5
    u0 = np.exp(-grid.x ** 2 / (4.0 * s0))
    traj = solve_linear(params, kern, grid, u0, T=2.0)
    expect = np.sqrt(s0 / (s0 + 2.0)) * np.exp(-grid.x ** 2 / (4.0 * (s0 + 2.0)))
    np.testing.assert_allclose(traj.fields[-1], expect, atol=1e-12)
    assert traj.n_h == 0


@pytest.mark.parametrize("T", [1e-7, 1e-3, 0.1, 1.0 / 3.0, 2.0, 7.5, 1e3,
                               12345.678, 1e100, 1e300])
def test_h0_times_are_linspace_bit_for_bit(T):
    # the exact h = 0 solution keeps the schedule of a step T/256
    grid = Grid(32.0, 256)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # edge contact
        traj = solve_linear(CharParams(0.0, 0.0, 0.0),
                            Gaussian(0.0, 1.0, 0.0), grid,
                            np.exp(-grid.x ** 2), T=T)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, T, 257))
    assert traj.fields.shape == (257, grid.n)


def test_h0_horizon_zero_keeps_one_snapshot():
    grid = Grid(32.0, 256)
    u0 = np.exp(-grid.x ** 2)
    traj = solve_linear(CharParams(0.0, 0.0, 0.0), Gaussian(0.0, 1.0, 0.0),
                        grid, u0, T=0.0)
    assert traj.times.tolist() == [0.0]
    np.testing.assert_allclose(traj.fields[0], u0, atol=1e-15)


def test_h0_rejects_callable_history():
    grid = Grid(32.0, 256)
    with pytest.raises(ConfigError, match="single initial profile"):
        solve_linear(CharParams(0.0, 0.0, 0.0), Gaussian(0.0, 1.0, 0.0),
                     grid, lambda s: np.zeros(grid.n), T=1.0)


def test_scalar_history_broadcasts_to_uniform_mode():
    # spatially constant data evolve by w' = p w + mass * w(t-h)
    grid = Grid(32.0, 256)
    params = CharParams(m=0.0, p=-1.0, h=0.5)
    kern = Gaussian(0.0, 1.0, 0.8)
    with pytest.warns(RuntimeWarning):  # constant data sit on the edge
        traj = solve_linear(params, kern, grid, 0.7, T=1.5, n_h=64)
    _, w = scalar_dde_solve(-1.0, 0.8, 0.5, 0.7, T=1.5, dt=0.5 / traj.n_h)
    final = traj.fields[-1]
    assert np.ptp(final) < 1e-12
    assert final[0] == pytest.approx(w[-1].real, rel=1e-10)


def test_constant_history_peak_memory_is_the_ring():
    # a constant profile is one ring row broadcast to every node: no
    # (n_h + 1, n) copies of it, or of its zero derivative, beside the ring
    import tracemalloc

    grid = Grid(64.0, 1024)
    n_h = 512
    ring_bytes = 2 * (n_h + 1) * grid.n * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning):  # a constant fills the domain
            solve_linear(CharParams(0.0, -1.0, 1.0), DESK_KERNEL, grid, 0.5,
                         T=0.25, n_h=n_h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ring_bytes


def test_constant_history_flushes_one_row_not_one_per_node(monkeypatch):
    # a constant history is one row broadcast to every ring node, so the
    # flushes before the first step do not grow with n_h
    counts = []
    inner = linear_solver._flush

    def counting(v):
        counts[-1] += 1
        return inner(v)

    monkeypatch.setattr(linear_solver, "_flush", counting)
    grid = Grid(32.0, 256)
    for n_h in (8, 64):
        counts.append(0)
        with pytest.warns(RuntimeWarning):  # a constant fills the domain
            solve_linear(DESK, DESK_KERNEL, grid, 0.5, T=0.0, n_h=n_h)
    assert counts[0] == counts[1]


def test_stiff_grid_runs_the_given_n_h():
    # |mu| dt reaches ~625 on the stiffest mode at n_h = 4; the exact step
    # has no stability limit, so n_h is used as given and only sets the
    # accuracy (2e-5 of the peak against n_h = 64, across t = h)
    grid = Grid(32.0, 512)
    params = CharParams(m=0.0, p=-1.0, h=1.0)
    kern = Gaussian(0.0, 1.0, 1.0)
    u0 = np.exp(-grid.x ** 2)
    coarse = solve_linear(params, kern, grid, u0, T=2.0, n_h=4)
    fine = solve_linear(params, kern, grid, u0, T=2.0, n_h=64)
    assert coarse.n_h == 4 and fine.n_h == 64
    assert coarse.times[-1] == fine.times[-1] == 2.0
    scale = np.max(np.abs(fine.fields[-1]))
    assert np.max(np.abs(coarse.fields[-1] - fine.fields[-1])) < 2e-5 * scale


def test_n_h_none_is_the_default_64():
    grid = Grid(32.0, 256)
    params = CharParams(m=0.0, p=-1.0, h=1.0)
    u0 = np.exp(-grid.x ** 2)
    kern = Gaussian(0.0, 1.0, 1.0)
    default = solve_linear(params, kern, grid, u0, T=1.0, n_h=None)
    given = solve_linear(params, kern, grid, u0, T=1.0, n_h=64)
    assert default.n_h == 64
    np.testing.assert_array_equal(default.fields, given.fields)


def test_history_profile_shape_validation():
    grid = Grid(32.0, 256)
    with pytest.raises(ConfigError, match="history profile must have shape"):
        solve_linear(CharParams(0.0, -1.0, 1.0), Gaussian(0.0, 1.0, 1.0),
                     grid, np.zeros(7), T=1.0, n_h=8)


def test_fd_cross_check_agrees():
    grid = Grid(32.0, 512)
    params = CharParams(m=0.4, p=-0.8, h=0.5)
    kern = Gaussian(0.0, 1.0, 1.0)
    u0 = np.exp(-(grid.x / 2.0) ** 2)
    a = solve_linear(params, kern, grid, u0, T=1.0)
    b = solve_linear_fd(params, kern, grid, u0, T=1.0)
    # step counts differ between the two routes, so only compare up to float
    assert a.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert b.times[-1] == pytest.approx(1.0, abs=1e-12)
    scale = np.max(np.abs(a.fields[-1]))
    assert np.max(np.abs(a.fields[-1] - b.fields[-1])) < 1e-3 * scale


def test_fd_constant_data_is_fourth_order_in_time():
    # spatially constant data make the FD route a scalar RK4 delay solve;
    # its cell [0, dt] needs the right derivative at t = 0 as well
    grid = Grid(256.0, 256)
    params = CharParams(m=0.0, p=-1.0, h=1.0)
    kern = Gaussian(0.0, 1.0, 0.8)
    _, ref = scalar_dde_solve(-1.0, 0.8, 1.0, 1.0, T=3.0, dt=1.0 / 1024)
    errs = []
    for n_h in (8, 16, 32):
        with pytest.warns(RuntimeWarning):  # constant data sit on the edge
            traj = solve_linear_fd(params, kern, grid, 1.0, T=3.0, n_h=n_h)
        assert traj.n_h == n_h
        errs.append(abs(traj.fields[-1][0] - ref[-1].real))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse >= 12.0 * fine


def test_fd_requires_delay():
    grid = Grid(32.0, 256)
    with pytest.raises(ConfigError, match="requires h > 0"):
        solve_linear_fd(CharParams(0.0, 0.0, 0.0), Gaussian(0.0, 1.0, 1.0),
                        grid, np.zeros(grid.n), T=1.0)


def test_probe_value_interpolates():
    grid = Grid(32.0, 256)
    with pytest.warns(RuntimeWarning):  # sine fills the whole domain
        traj = solve_linear(CharParams(0.0, 0.0, 0.0), Gaussian(0.0, 1.0, 0.0),
                            grid, np.sin(2.0 * np.pi * grid.x / 32.0), T=0.0)
    j = 17
    assert probe_value(traj, float(grid.x[j]))[0] == pytest.approx(
        traj.fields[0][j], abs=1e-14)
    mid = float(grid.x[j]) + 0.5 * grid.dx
    assert probe_value(traj, mid)[0] == pytest.approx(
        0.5 * (traj.fields[0][j] + traj.fields[0][j + 1]), abs=1e-14)


def test_edge_truncation_warns():
    # strong drift pushes the packet into the periodic boundary
    grid = Grid(16.0, 256)
    with pytest.warns(RuntimeWarning, match="periodic edge"):
        solve_linear(CharParams(m=5.0, p=0.0, h=0.0), Gaussian(0.0, 1.0, 0.0),
                     grid, np.exp(-grid.x ** 2), T=2.0)


def test_decay_diagnostics_shapes_and_start():
    grid = Grid(64.0, 512)
    u0 = np.exp(-grid.x ** 2)
    traj = solve_linear(DESK, DESK_KERNEL, grid, u0, T=2.0, out_every=32)
    tang = tangency_solve(DESK, DESK_KERNEL)
    D = tangency_limit_diagnostic(traj, tang)
    S = universal_bound_diagnostic(traj, gamma_zero(DESK, DESK_KERNEL, 0.0))
    assert D.shape == S.shape == traj.times.shape
    assert D[0] == 0.0 and S[0] == 0.0  # sqrt(t) factor at t = 0
    assert np.all(np.isfinite(D)) and np.all(np.isfinite(S))


def _ring_and_fields(monkeypatch, flush):
    # the fields of a run whose high modes decay through the subnormal
    # range (|xi| up to 50, where the Gaussian khat is subnormal too), and
    # the history ring the step leaves behind
    monkeypatch.setattr(linear_solver, "_FLUSH", flush)
    seen = []
    inner = linear_solver._rk4_delay_diag

    def keep_ring(mu, kap, ring, n_steps, collect):
        seen.append(ring)
        inner(mu, kap, ring, n_steps, collect)

    monkeypatch.setattr(linear_solver, "_rk4_delay_diag", keep_ring)
    grid = Grid(16.0, 256)
    u0 = np.exp(-grid.x ** 2)
    with pytest.warns(RuntimeWarning):  # the small domain's seam is reached
        traj = solve_linear(DESK, DESK_KERNEL, grid, u0, T=2.0, n_h=16,
                            out_every=1)
    return seen[0], traj.fields


def _subnormal_parts(values):
    parts = np.abs(values.view(float))
    return np.count_nonzero((parts > 0.0) & (parts < np.finfo(float).tiny))


def test_spectral_step_stores_no_subnormal_values(monkeypatch):
    ring, fields = _ring_and_fields(monkeypatch, linear_solver._FLUSH)
    assert _subnormal_parts(ring.vals) == 0
    assert _subnormal_parts(ring.ders) == 0
    with monkeypatch.context() as unflushed:
        raw_ring, raw_fields = _ring_and_fields(unflushed, 0.0)
    # without the flush the same run does store subnormal parts, and the
    # flush changes no bit of the physical fields
    assert _subnormal_parts(raw_ring.vals) > 0
    assert _subnormal_parts(raw_ring.ders) > 0
    assert np.array_equal(fields, raw_fields)
    assert fields.tobytes() == raw_fields.tobytes()


@pytest.mark.parametrize("mu,kappa", [(-300.0, 1e-120),
                                      (-300.0 + 5j, 1e-120 + 2e-121j)])
def test_flush_leaves_a_single_mode_alone(monkeypatch, mu, kappa):
    # one mode is its own largest part, so it decays below 1e-308 (about
    # kappa / |mu| per delay, and on to 0) exactly as it would unflushed
    _, w = scalar_dde_solve(mu, kappa, 1.0, 1.0, T=3.0, dt=1.0 / 64)
    monkeypatch.setattr(linear_solver, "_FLUSH", 0.0)
    _, raw = scalar_dde_solve(mu, kappa, 1.0, 1.0, T=3.0, dt=1.0 / 64)
    assert 0 < np.count_nonzero(np.abs(w) < 1e-308) < w.size
    assert w.tobytes() == raw.tobytes()


def test_flush_returns_an_empty_array_unchanged():
    # an empty array has no largest part to flush against
    for dtype in (float, complex):
        empty = np.zeros(0, dtype)
        assert _flush(empty) is empty and empty.size == 0


XVAL_GRID = Grid(48.0, 1024)  # xval-smooth's kernel and params, smaller
XVAL = CharParams(m=0.4, p=-0.8, h=1.0)


def _coupled_run(monkeypatch, kernel, u0, n_h=16, out_every=1):
    """solve_linear's fields at every out_every-th step to T = 2, its
    ring, and the width of each w the step hands to collect."""
    rings, widths = [], []
    inner = linear_solver._rk4_delay_diag

    def spy(mu, kap, ring, n_steps, collect):
        def seen(n, w):
            widths.append(w.size)
            collect(n, w)

        rings.append(ring)
        inner(mu, kap, ring, n_steps, seen)

    monkeypatch.setattr(linear_solver, "_rk4_delay_diag", spy)
    traj = solve_linear(XVAL, kernel, XVAL_GRID, u0, T=2.0, n_h=n_h,
                        out_every=out_every)
    return traj.fields, rings[0], widths


def _half_spectrum(n):
    # the rfft modes 2 pi k / L, k = 0 .. n/2, named here, not taken from
    # Grid.xi, so that the tests pin the set the solver steps
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=XVAL_GRID.dx)


def _full_ring_fields(kernel, u0):
    # the same step with every mode of the half spectrum in the ring
    grid = XVAL_GRID
    xi = _half_spectrum(grid.n)
    mu = -xi ** 2 + 1j * XVAL.m * xi + XVAL.p
    ring = HistoryRing(XVAL.h, 16, xi.size, complex)
    hv, hd = _history_samples(u0, 16, XVAL.h, grid.n, float)
    vals, ders = np.fft.rfft(hv, axis=1), np.fft.rfft(hd, axis=1)
    for row in (*vals, *ders):
        _flush(row)
    ring.fill(vals, ders)
    fields = []
    _rk4_delay_diag(mu, kernel.fourier(xi), ring, 32,
                    lambda n, w: fields.append(np.fft.irfft(w, grid.n)))
    return np.array(fields)


def _coupled_count(kern, xi):
    weights = _step_weights(-xi ** 2 + 1j * XVAL.m * xi + XVAL.p,
                            kern.fourier(xi), XVAL.h / 16)[1:]
    return np.count_nonzero(np.any(weights, axis=0))


def test_ring_holds_only_the_coupled_modes(monkeypatch):
    # coupled modes of the half spectrum only: each conjugate pair of the
    # full FFT set once, and the real mode 0 (the Nyquist mode is free)
    kern = Gaussian(0.0, 1.0, 1.0)
    _, ring, _ = _coupled_run(monkeypatch, kern,
                              np.exp(-XVAL_GRID.x ** 2 / 8.0))
    coupled = _coupled_count(kern, _half_spectrum(XVAL_GRID.n))
    full = 2.0 * np.pi * np.fft.fftfreq(XVAL_GRID.n, d=XVAL_GRID.dx)
    assert ring.vals.shape == ring.ders.shape == (17, coupled)
    assert 2 * coupled - 1 == _coupled_count(kern, full)
    assert 0 < coupled < XVAL_GRID.n / 4


@pytest.mark.parametrize("history", ["constant", "callable"])
def test_coupled_ring_matches_a_full_ring_bit_for_bit(monkeypatch, history):
    kern = Gaussian(0.0, 1.0, 1.0)
    bump = np.exp(-XVAL_GRID.x ** 2 / 8.0)
    u0 = bump if history == "constant" else \
        (lambda s: bump * np.exp(0.5 * s) * (1.0 + 0.3 * np.sin(3.0 * s)))
    fields, ring, widths = _coupled_run(monkeypatch, kern, u0)
    full = _full_ring_fields(kern, u0)
    assert fields.tobytes() == full.tobytes()
    # the step carries the coupled modes only, from the first step on
    assert set(widths) == {ring.newest.size}


def _uncoupled_run(monkeypatch, params, kernel, u0, **kw):
    """solve_linear's fields to T = 2 with the ring and the step made to
    fail: a run with no coupled mode builds no ring and takes no step."""
    def refused(*args, **kwargs):
        raise AssertionError("a run with no coupled mode built a ring or "
                             "took a step")

    monkeypatch.setattr(linear_solver, "HistoryRing", refused)
    monkeypatch.setattr(linear_solver, "_rk4_delay_diag", refused)
    return solve_linear(params, kernel, XVAL_GRID, u0, T=2.0, **kw).fields


def test_mass_zero_kernel_builds_no_ring_and_decays_exactly(monkeypatch):
    # every mode is free, so each kept field is the closed form itself
    kern = Gaussian(0.0, 1.0, 0.0)
    u0 = np.exp(-XVAL_GRID.x ** 2 / 8.0)
    fields = _uncoupled_run(monkeypatch, XVAL, kern, u0, n_h=16,
                            out_every=1)
    xi = _half_spectrum(XVAL_GRID.n)
    mu = -xi ** 2 + 1j * XVAL.m * xi + XVAL.p
    exact = [np.fft.irfft(np.fft.rfft(u0) * np.exp(mu * (n * (1.0 / 16))),
                          XVAL_GRID.n) for n in range(33)]
    assert fields.tobytes() == np.array(exact).tobytes()


def test_mass_zero_kernel_does_not_depend_on_n_h(monkeypatch):
    # the same kept times k/16 at n_h 16 and at n_h 128
    kern = Gaussian(0.0, 1.0, 0.0)
    u0 = np.exp(-XVAL_GRID.x ** 2 / 8.0)
    coarse = _uncoupled_run(monkeypatch, XVAL, kern, u0, n_h=16, out_every=1)
    fine = _uncoupled_run(monkeypatch, XVAL, kern, u0, n_h=128, out_every=8)
    assert coarse.shape == (33, XVAL_GRID.n)
    assert coarse.tobytes() == fine.tobytes()


def test_h0_run_builds_no_ring_and_takes_no_step(monkeypatch):
    # at h = 0 no delay couples a mode: each is w0 e^{(mu + khat) t}, kept
    # at the times k T/256
    kern = Gaussian(0.0, 1.0, 1.0)
    params = CharParams(m=XVAL.m, p=XVAL.p, h=0.0)
    u0 = np.exp(-XVAL_GRID.x ** 2 / 8.0)
    fields = _uncoupled_run(monkeypatch, params, kern, u0)
    xi = _half_spectrum(XVAL_GRID.n)
    rate = -xi ** 2 + 1j * params.m * xi + params.p + kern.fourier(xi)
    exact = [np.fft.irfft(np.fft.rfft(u0) * np.exp(rate * (n * (2.0 / 256))),
                          XVAL_GRID.n) for n in range(257)]
    assert fields.tobytes() == np.array(exact).tobytes()


def _random_ring(width, n_h):
    """mu (one growing mode, the rest decaying), kap and a ring filled
    with a random, flushed history, the same for the same arguments."""
    rng = np.random.default_rng(n_h * 100003 + width)
    shape = (n_h + 1, width)
    vals, ders = (_flush(rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
                  for _ in range(2))
    ring = HistoryRing(1.0, n_h, width, complex)
    ring.fill(vals, ders)
    mu = -rng.uniform(0.0, 30.0, width) + 1j * rng.uniform(-5.0, 5.0, width)
    mu[0] = 0.5
    kap = rng.uniform(0.1, 1.0, width) * np.exp(
        2j * np.pi * rng.uniform(size=width))
    return mu, kap, ring


# rows per block max(1, _BLOCK_ELEMS // width): above every n_h (3), equal
# to n_h 17 (481), just below it (482), 2 (2731) and 1 (one step per block)
@pytest.mark.parametrize("width", [3, _BLOCK_ELEMS // 17,
                                   _BLOCK_ELEMS // 17 + 1,
                                   _BLOCK_ELEMS // 3 + 1, _BLOCK_ELEMS + 1])
@pytest.mark.parametrize("n_h", [1, 2, 3, 17])
def test_block_step_matches_the_stepwise_reference(width, n_h):
    # three delays and more, so blocks read rows across the ring's wrap;
    # with fewer rows per block than n_h, the block that ends at step n_h
    # also holds step n_h - 1, which reads the ring row of t = 0 with the
    # left derivative while step n_h reads it with the right one.  The
    # block step sums the increment in another order and flushes its rows
    # once per block: each row within 16 ulps of its largest entry (4.3
    # measured)
    n_steps = 3 * (n_h + 1) + 2
    mu, kap, ring = _random_ring(width, n_h)
    _, _, ref_ring = _random_ring(width, n_h)
    blocks, store = [], ring.store_rows

    def spy(count):
        blocks.append(range(ring._step, ring._step + count))  # its steps
        return store(count)

    ring.store_rows = spy
    got, ref = [], []
    _rk4_delay_diag(mu, kap, ring, n_steps, lambda n, w: got.append(w.copy()))
    stepwise_delay_diag(mu, kap, ref_ring, n_steps,
                        lambda n, w: ref.append(w.copy()))
    straddles = any(n_h - 1 in b and n_h in b for b in blocks)
    assert straddles == (1 < _BLOCK_ELEMS // width < n_h)
    assert sum(map(len, blocks)) == n_steps
    for new, old in ((np.array(got), np.array(ref)),
                     (ring.vals, ref_ring.vals), (ring.ders, ref_ring.ders)):
        scale = np.abs(old).max(axis=1)
        assert np.all(np.abs(new - old).max(axis=1)
                      <= 16 * np.finfo(float).eps * scale)
