"""Linear solver: mode-by-mode oracle, closed forms, and the FD cross-check."""

import math

import numpy as np
import pytest

from delaykpp import (CharParams, ConfigError, Gaussian, Grid, TiltedKernel,
                      halanay_root, probe_value, scalar_dde_solve,
                      solve_linear, solve_linear_fd, tangency_solve,
                      tangency_limit_diagnostic, universal_bound_diagnostic,
                      gamma_zero)
from delaykpp.linear_solver import _phi

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


def test_history_pair_shape_validation():
    grid = Grid(32.0, 256)
    bad = (np.zeros((3, grid.n)), np.zeros((3, grid.n)))
    with pytest.raises(ConfigError, match="history arrays must have shape"):
        solve_linear(CharParams(0.0, -1.0, 1.0), Gaussian(0.0, 1.0, 1.0),
                     grid, bad, T=1.0, n_h=8)
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
    assert probe_value(traj, 0, float(grid.x[j])) == pytest.approx(
        traj.fields[0][j], abs=1e-14)
    mid = float(grid.x[j]) + 0.5 * grid.dx
    assert probe_value(traj, 0, mid) == pytest.approx(
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
    t1, D = tangency_limit_diagnostic(traj, tang)
    t2, S = universal_bound_diagnostic(traj, gamma_zero(DESK, DESK_KERNEL, 0.0))
    assert t1.shape == D.shape == traj.times.shape
    assert t2.shape == S.shape == traj.times.shape
    assert D[0] == 0.0 and S[0] == 0.0  # sqrt(t) factor at t = 0
    assert np.all(np.isfinite(D)) and np.all(np.isfinite(S))


def test_snapshot_accessor():
    grid = Grid(32.0, 256)
    traj = solve_linear(CharParams(0.0, 0.0, 0.0), Gaussian(0.0, 1.0, 0.0),
                        grid, np.exp(-grid.x ** 2), T=1.0)
    f = traj.snapshot(0)
    assert f.time == 0.0
    np.testing.assert_array_equal(f.values, traj.fields[0])
