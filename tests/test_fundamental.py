"""Fundamental solution: gate, implicit symbol, synthesis, approximate identity."""

import numpy as np
import pytest

from delaykpp import (CharParams, ConfigError, Dirac, Gaussian, GateError,
                      approx_identity_error, gate_check, pde_residual,
                      rho_solve, symbol_table)
from oracles import gamma_h_eval

PARAMS = CharParams(m=0.0, p=-1.0, h=0.25)
KERNEL = Gaussian(0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def table():
    return symbol_table(PARAMS, KERNEL, t_min=0.02, x_span=40.0)


def test_gate_accepts_wide_gaussian():
    gate_check(PARAMS, KERNEL, z_max=30.0)  # std^2 = 1 >= 2h = 0.5


def test_gate_rejects_dirac():
    with pytest.raises(GateError, match="decays too slowly"):
        gate_check(CharParams(0.0, -1.0, 1.0), Dirac(0.0, 2.0), z_max=30.0)


def test_gate_rejects_uncompensated_shift():
    shifted = Gaussian(-1.0, 1.5, 1.0)
    with pytest.raises(GateError, match="not real"):
        gate_check(CharParams(0.0, -1.0, 0.5), shifted, z_max=10.0)
    # the same kernel passes once the drift absorbs the offset: c = -m h
    gate_check(CharParams(2.0, -1.0, 0.5), shifted, z_max=10.0)


def test_symbol_residual_at_float_floor(table):
    assert table.residual() < 1e-12
    # spot check a grid node against the scalar solver
    j = len(table.z) // 3
    assert rho_solve(PARAMS, KERNEL, float(table.z[j])) == pytest.approx(
        float(table.rho[j]), abs=1e-12)


def test_symbol_grid_keeps_origin(table):
    assert 0.0 in table.z
    assert table.rho0 == pytest.approx(rho_solve(PARAMS, KERNEL, 0.0),
                                       abs=1e-14)


def test_zero_mass_kernel_reduces_to_heat_kernel():
    # with khat = 0 and m = p = 0 the symbol is -z^2 and the synthesis is
    # the classical Gaussian integral sqrt(pi/t) e^{-x^2/(4t)}
    tab = symbol_table(CharParams(0.0, 0.0, 0.25), Gaussian(0.0, 1.0, 0.0),
                       t_min=0.1, x_span=30.0)
    x = np.linspace(-8.0, 8.0, 41)
    got = gamma_h_eval(tab, 0.5, x)
    expect = np.sqrt(np.pi / 0.5) * np.exp(-x ** 2 / 2.0)
    np.testing.assert_allclose(got, expect, atol=1e-10 * expect.max())


def test_synthesis_symmetric_and_real(table):
    x = np.linspace(0.5, 6.0, 12)
    left = gamma_h_eval(table, 1.0, -x)
    right, imag_frac = gamma_h_eval(table, 1.0, x, return_imag=True)
    np.testing.assert_allclose(left, right, rtol=1e-12)
    assert imag_frac < 1e-12


def test_approx_identity_errors_decrease(table):
    x = np.linspace(-20.0, 20.0, 801)
    psi = np.exp(-(x / 2.0) ** 2)
    errs = [approx_identity_error(table, t, x, psi) for t in (0.5, 0.1, 0.02)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_pde_residual_small_and_second_order(table):
    r = pde_residual(table, t=0.5)
    assert r < 1e-5
    # the undelayed equation too, where the delayed term is read at t
    # itself; its default dt is t/256, not h/256, so only the order is
    # asserted for it
    undelayed = symbol_table(CharParams(0.0, -1.0, 0.0), KERNEL, t_min=0.1,
                             x_span=30.0)
    for tab in (table, undelayed):
        r1 = pde_residual(tab, t=0.5, dt=0.01)
        r2 = pde_residual(tab, t=0.5, dt=0.005)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_tail_guard_refuses_too_small_time():
    tab = symbol_table(PARAMS, KERNEL, t_min=0.25, x_span=30.0)
    with pytest.raises(ConfigError, match="extend z_max"):
        gamma_h_eval(tab, 0.01, 0.0)


def test_time_domain_guards(table):
    with pytest.raises(ConfigError, match="t > 0"):
        gamma_h_eval(table, 0.0, 0.0)
    with pytest.raises(ConfigError, match="t > h"):
        pde_residual(table, t=0.2)


def test_peak_positive_at_small_time(table):
    # approximate identity forces a positive peak near the origin
    val = gamma_h_eval(table, 0.05, 0.0)
    assert val > 0.0
