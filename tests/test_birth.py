"""Birth families: equilibria, slopes, the sub-tangential law, the
closed forms bit for bit and the config form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaykpp import (LinearBirth, LinearCap, MackeyGlass, Nicholson,
                      birth_from_dict)
from oracles import subtangential_defect

FAMILIES = [Nicholson(2.0, 1.0), Nicholson(math.e ** 2, 0.5),
            MackeyGlass(3.0, 1.0, 2.0), MackeyGlass(2.0, 0.7, 0.8),
            LinearCap(1.5, 2.0)]
# the config form of each entry of FAMILIES, in the same order
SPECS = [{"family": "nicholson", "p": 2.0, "a": 1.0},
         {"family": "nicholson", "p": math.e ** 2, "a": 0.5},
         {"family": "mackey_glass", "p": 3.0, "a": 1.0, "q": 2.0},
         {"family": "mackey_glass", "p": 2.0, "a": 0.7, "q": 0.8},
         {"family": "linear_cap", "slope": 1.5, "cap": 2.0}]


@pytest.mark.parametrize("birth", FAMILIES, ids=lambda b: type(b).__name__)
def test_kappa_is_fixed_point(birth):
    k = birth.kappa
    assert k > 0.0
    assert float(birth(k)) == pytest.approx(k, rel=1e-14)


def _closed_form(birth, u):
    if isinstance(birth, Nicholson):
        return birth.p * u * np.exp(-birth.a * u)
    if isinstance(birth, MackeyGlass):
        return birth.p * u / (1.0 + birth.a * np.abs(u) ** birth.q)
    if isinstance(birth, LinearCap):
        return np.minimum(birth.slope * u, birth.cap)
    return birth.slope * u


# signed values with both zeros, and ones where e^{-a u} and |u|^q
# overflow
SIGNED = np.array([-0.0, 0.0, -1e-300, 5e-324, -0.3, 0.7, 2.0, 40.0,
                   -800.0, 800.0, -1e200, 1e200, 1e308, -1e308])


@pytest.mark.parametrize("birth", [*FAMILIES, LinearBirth(2.5)],
                         ids=lambda b: type(b).__name__)
def test_call_is_the_closed_form_bit_for_bit(birth):
    rng = np.random.default_rng(7)
    inputs = [SIGNED, SIGNED.reshape(2, 7),
              rng.standard_normal((3, 50)) * 10.0 ** rng.integers(
                  -3, 4, (3, 50))]
    with np.errstate(over="ignore", invalid="ignore"):
        for u in inputs:
            got, want = birth(u), _closed_form(birth, u)
            assert got.shape == u.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))
        # a number gives a float64 scalar, as the closed form does
        for x in (0.5, -0.0, -800.0, np.float64(3.0)):
            got, want = birth(x), _closed_form(birth, np.asarray(x))
            assert type(got) is type(want) is np.float64
            assert np.array(got).view(np.uint64) == \
                np.array(want).view(np.uint64)


@pytest.mark.parametrize("birth", FAMILIES, ids=lambda b: type(b).__name__)
def test_gprime0_matches_finite_difference(birth):
    eps = 1e-7
    fd = float(birth(eps)) / eps
    assert fd == pytest.approx(birth.gprime0, rel=1e-5)


@pytest.mark.parametrize("birth", FAMILIES, ids=lambda b: type(b).__name__)
def test_subtangential(birth):
    assert subtangential_defect(birth, 10.0 * birth.kappa) <= 1e-12


@given(p=st.floats(1.01, 50.0), a=st.floats(0.05, 5.0))
@settings(max_examples=60, deadline=None)
def test_nicholson_subtangential_property(p, a):
    assert subtangential_defect(Nicholson(p, a), 20.0 / a) <= 1e-10 * p


@given(p=st.floats(1.01, 50.0), a=st.floats(0.05, 5.0),
       q=st.floats(0.3, 6.0))
@settings(max_examples=60, deadline=None)
def test_mackey_glass_subtangential_property(p, a, q):
    b = MackeyGlass(p, a, q)
    assert subtangential_defect(b, 10.0 * b.kappa + 1.0) <= 1e-10 * p


def test_linear_cap_kappa_is_cap():
    assert LinearCap(3.0, 0.7).kappa == 0.7


def test_linear_birth_reproduces_slope_and_refuses_kappa():
    b = LinearBirth(2.5)
    assert float(b(3.0)) == pytest.approx(7.5)
    assert b.gprime0 == 2.5
    with pytest.raises(ValueError, match="no positive equilibrium"):
        b.kappa


@pytest.mark.parametrize("birth, spec", zip(FAMILIES, SPECS),
                         ids=[type(b).__name__ for b in FAMILIES])
def test_dict_round_trip(birth, spec):
    assert birth_from_dict(spec) == birth


def test_from_dict_validation():
    with pytest.raises(ValueError, match="field 'birth.family': unknown "
                       "birth family 'logistic'"):
        birth_from_dict({"family": "logistic"})
    with pytest.raises(ValueError, match="field 'birth.rate' is not read"):
        birth_from_dict({"family": "nicholson", "p": 2.0, "rate": 1.0})
    with pytest.raises(ValueError, match="missing required field "
                       "'birth.family'"):
        birth_from_dict({"p": 2.0})


def test_constructor_guards():
    with pytest.raises(ValueError):
        Nicholson(0.9)
    with pytest.raises(ValueError):
        MackeyGlass(2.0, -1.0)
    with pytest.raises(ValueError):
        LinearCap(1.0, 1.0)
