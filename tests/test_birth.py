"""Birth families: equilibria, slopes, the sub-tangential law and the
config form."""

import math

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
    with pytest.raises(ValueError, match="unknown birth family"):
        birth_from_dict({"family": "logistic"})
    with pytest.raises(ValueError, match="unknown birth parameters"):
        birth_from_dict({"family": "nicholson", "p": 2.0, "rate": 1.0})
    with pytest.raises(ValueError, match="'family'"):
        birth_from_dict({"p": 2.0})


def test_constructor_guards():
    with pytest.raises(ValueError):
        Nicholson(0.9)
    with pytest.raises(ValueError):
        MackeyGlass(2.0, -1.0)
    with pytest.raises(ValueError):
        LinearCap(1.0, 1.0)
