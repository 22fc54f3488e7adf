"""Birth-rate nonlinearities for the delayed non-local KPP equation.

Each family supplies the map g itself, its slope at the origin and the
positive equilibrium kappa solving g(kappa) = kappa.  All families
satisfy the sub-tangential property g(u) <= g'(0) u on u >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Nicholson", "MackeyGlass", "LinearCap", "LinearBirth",
           "birth_from_dict"]


@dataclass(frozen=True)
class Nicholson:
    """Ricker-type birth g(u) = p u e^{-a u} with p > 1, a > 0."""

    p: float
    a: float = 1.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("Nicholson needs p > 1 for a positive equilibrium")
        if self.a <= 0.0:
            raise ValueError("Nicholson needs a > 0")

    @property
    def gprime0(self) -> float:
        return self.p

    @property
    def kappa(self) -> float:
        return math.log(self.p) / self.a

    def __call__(self, u):
        """(p u) e^{(-a) u}, in that order, for a number (returning a
        float64) or an array (the product written in place into p u)."""
        u = np.asarray(u, dtype=float)
        g = self.p * u
        g *= np.exp(-self.a * u)
        return g


@dataclass(frozen=True)
class MackeyGlass:
    """Hill-type birth g(u) = p u / (1 + a u^q) with p > 1, a > 0, q > 0."""

    p: float
    a: float = 1.0
    q: float = 2.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("MackeyGlass needs p > 1 for a positive equilibrium")
        if self.a <= 0.0 or self.q <= 0.0:
            raise ValueError("MackeyGlass needs a > 0 and q > 0")

    @property
    def gprime0(self) -> float:
        return self.p

    @property
    def kappa(self) -> float:
        return ((self.p - 1.0) / self.a) ** (1.0 / self.q)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return self.p * u / (1.0 + self.a * np.abs(u) ** self.q)


@dataclass(frozen=True)
class LinearCap:
    """Piecewise-linear birth g(u) = min(slope u, cap), slope > 1, cap > 0."""

    slope: float
    cap: float = 1.0

    def __post_init__(self):
        if self.slope <= 1.0:
            raise ValueError("LinearCap needs slope > 1 for a positive equilibrium")
        if self.cap <= 0.0:
            raise ValueError("LinearCap needs cap > 0")

    @property
    def gprime0(self) -> float:
        return self.slope

    @property
    def kappa(self) -> float:
        # g(cap) = min(slope*cap, cap) = cap since slope > 1
        return self.cap

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.minimum(self.slope * u, self.cap)


@dataclass(frozen=True)
class LinearBirth:
    """Linear majorant g(u) = slope u; no positive equilibrium.

    Used as the comparison partner: running the nonlinear integrator with
    this birth reproduces the linearized-at-zero equation exactly."""

    slope: float

    @property
    def gprime0(self) -> float:
        return self.slope

    @property
    def kappa(self) -> float:
        raise ValueError("linear birth has no positive equilibrium")

    def __call__(self, u):
        return self.slope * np.asarray(u, dtype=float)


def birth_from_dict(spec: dict):
    """The birth of the spec {'family': ..., <params>}, read as a config's
    birth field is read (config.Fields.birth)."""
    from .config import Fields  # config imports this module
    return Fields({"birth": spec}).birth()
