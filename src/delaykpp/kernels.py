"""Dispersal kernels and their integral transforms.

A kernel is a nonnegative measure k on the line with finite mass and a
two-sided exponential moment: its bilateral Laplace transform

    L(z) = int k(y) exp(-z*y) dy

is finite on a maximal open interval (a, b) containing 0.  The same closed
forms extend to complex argument with Re(z) in (a, b), which gives the
Fourier transform

    k_hat(xi) = int k(y) exp(-i*xi*y) dy = L(i*xi)

and the transforms of exponentially tilted kernels, L(z0 + i*xi).

Every family is a unit shape s centred at 0, moved to a centre c and
given a mass: k(x) = mass * s(x - c).  A family states only what is its
own: its parameters and their checks, its density, a finite strip where
it has one, and the transform S(z) = int s(y) exp(-z*y) dy of its shape
with S' and S''.  Kernel derives the rest once,

    L(z)    = mass e^{-zc} S(z),
    -L'(z)  = mass e^{-zc} (c S - S'),
    L''(z)  = mass e^{-zc} (c^2 S - 2 c S' + S''),

and shifting moves c, scaling multiplies the mass, and tilting wraps the
kernel in TiltedKernel.  Four families are provided (Dirac, Gaussian,
Laplace, Uniform); the config family name "shifted_gaussian" is an alias
that builds a Gaussian.  Dirac and Gaussian are closed under tilting and
tilt within the family, and Gaussian writes each transform as one
exponential.  ``discretize`` produces the grid-sampled object used by the
physical-space solvers; Dirac kernels become exact index shifts instead
of samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import TransformDomainError

__all__ = [
    "Kernel",
    "Dirac",
    "Gaussian",
    "LaplaceKernel",
    "UniformKernel",
    "TiltedKernel",
    "DiscreteKernel",
    "discretize",
    "quadrature_laplace",
    "kernel_from_dict",
]


def _check_domain(dom: tuple[float, float], z) -> None:
    a, b = dom
    re = np.real(z)
    bad_lo = np.any(re <= a)
    bad_hi = np.any(re >= b)
    if bad_lo or bad_hi:
        side = a if bad_lo else b
        raise TransformDomainError(
            f"bilateral Laplace transform diverges: Re(z) must lie in "
            f"({a}, {b}), violated abscissa {side}"
        )


class Kernel:
    """k(x) = mass * s(x - c): a unit shape s centred at 0, moved to c.

    A family is a frozen dataclass with a ``mass`` field and a centre
    field, which ``_centre`` names; ``_positive`` names the parameter that
    must be positive, if any.  It implements ``density`` and ``_shape``,
    and ``domain`` when its strip is finite; the transforms, the algebra
    and the checks of mass and strip are derived here.  A family closed
    under tilting overrides ``tilted`` (Dirac, Gaussian), and Gaussian
    overrides the transforms in place of ``_shape``.
    """

    mass: float
    _centre = "center"
    _positive = None

    def __post_init__(self):
        if self._positive is not None and getattr(self, self._positive) <= 0:
            raise ValueError(f"{self._positive} must be positive")
        if self.mass < 0:
            raise ValueError("kernel mass must be nonnegative")

    # -- transforms ---------------------------------------------------------

    def domain(self) -> tuple[float, float]:
        """The strip (a, b), a < 0 < b, where L(z) is finite."""
        return -math.inf, math.inf

    def _shape(self, z):
        """S, S' and S'' at z, for S(z) = int s(y) e^{-z y} dy of the unit
        shape centred at 0."""
        raise NotImplementedError

    def _parts(self, z):
        # mass e^{-zc}, c and the shape triple, once z is inside the strip
        z = np.asarray(z)
        _check_domain(self.domain(), z)
        c = getattr(self, self._centre)
        return self.mass * np.exp(-z * c), c, self._shape(z)

    def laplace(self, z):
        """L(z) = int k(y) e^{-z y} dy, complex z allowed, Re(z) in (a,b)."""
        e, _, (S, _, _) = self._parts(z)
        return e * S

    def moment1(self, z):
        """int y k(y) e^{-z y} dy = -L'(z)."""
        e, c, (S, S1, _) = self._parts(z)
        return e * (c * S - S1)

    def moment2(self, z):
        """int y^2 k(y) e^{-z y} dy = L''(z)."""
        e, c, (S, S1, S2) = self._parts(z)
        return e * (c**2 * S - 2.0 * c * S1 + S2)

    def fourier(self, xi):
        """k_hat(xi) = L(i*xi)."""
        return self.laplace(1j * np.asarray(xi))

    def density(self, x):
        raise NotImplementedError

    # -- algebra ------------------------------------------------------------

    def shifted(self, s: float) -> "Kernel":
        """Kernel x -> k(x - s)."""
        return replace(self, **{self._centre: getattr(self, self._centre) + s})

    def tilted(self, lam: float) -> "Kernel":
        """Kernel x -> k(x) e^{-lam x}; lam must lie in the domain."""
        return TiltedKernel(self, lam)

    def scaled(self, c: float) -> "Kernel":
        """Kernel with mass multiplied by c >= 0."""
        return replace(self, mass=self.mass * c)


@dataclass(frozen=True)
class Dirac(Kernel):
    """Point mass at ``shift``: k = mass * delta(x - shift)."""

    shift: float = 0.0
    mass: float = 1.0
    _centre = "shift"

    def _shape(self, z):
        return 1.0, 0.0, 0.0

    def density(self, x):
        raise TypeError("Dirac kernel has no pointwise density; discretize() "
                        "yields an exact shift operator")

    def tilted(self, lam: float) -> "Dirac":
        return Dirac(self.shift, self.mass * math.exp(-lam * self.shift))


@dataclass(frozen=True)
class Gaussian(Kernel):
    """Gaussian density with the given mean and standard deviation.

    Each transform is written as one exponential, e^{-z mean + (z stddev)^2
    / 2}, rather than as e^{-z mean} times the shape's transform.
    """

    mean: float = 0.0
    stddev: float = 1.0
    mass: float = 1.0
    _centre = "mean"
    _positive = "stddev"

    def laplace(self, z):
        z = np.asarray(z)
        return self.mass * np.exp(-z * self.mean + 0.5 * (z * self.stddev) ** 2)

    def moment1(self, z):
        z = np.asarray(z)
        return (self.mean - z * self.stddev**2) * self.laplace(z)

    def moment2(self, z):
        z = np.asarray(z)
        return (self.stddev**2 + (self.mean - z * self.stddev**2) ** 2) * self.laplace(z)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        s = self.stddev
        return self.mass * np.exp(-0.5 * ((x - self.mean) / s) ** 2) / (s * math.sqrt(2 * math.pi))

    def tilted(self, lam: float) -> "Gaussian":
        # N(mu,s) e^{-lam x} = e^{-lam mu + lam^2 s^2/2} N(mu - lam s^2, s)
        factor = math.exp(-lam * self.mean + 0.5 * (lam * self.stddev) ** 2)
        return replace(self, mean=self.mean - lam * self.stddev**2, mass=self.mass * factor)


@dataclass(frozen=True)
class LaplaceKernel(Kernel):
    """Two-sided exponential (rate b) centred at ``center``.

    Density mass*(b/2)*exp(-b|x-center|); transform domain (-b, b), the
    finite strip among the four families.
    """

    rate: float
    center: float = 0.0
    mass: float = 1.0
    _positive = "rate"

    def domain(self) -> tuple[float, float]:
        return -self.rate, self.rate

    def _shape(self, z):
        # S = b^2 / (b^2 - z^2)
        b2 = self.rate**2
        d = b2 - z * z
        return (b2 / d, 2.0 * z * b2 / d**2,
                2.0 * b2 / d**2 + 8.0 * z * z * b2 / d**3)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return self.mass * 0.5 * self.rate * np.exp(-self.rate * np.abs(x - self.center))


@dataclass(frozen=True)
class UniformKernel(Kernel):
    """Uniform density on [center - half_width, center + half_width]."""

    half_width: float
    center: float = 0.0
    mass: float = 1.0
    _positive = "half_width"

    def _shape(self, z):
        # S(z) = sinh(x)/x at x = w z, by its Taylor series near x = 0,
        # where the direct form cancels; complex-safe
        w = self.half_width
        x = z * w
        small = np.abs(x) < 1e-2
        xs = np.where(small, 0.0, x)  # avoid 0/0 in the direct branch
        with np.errstate(invalid="ignore", divide="ignore"):
            sh, ch = np.sinh(xs), np.cosh(xs)
            S = np.where(small, 1.0 + x * x / 6.0 + x**4 / 120.0, sh / xs)
            S1 = np.where(small, x / 3.0 + x**3 / 30.0 + x**5 / 840.0,
                          (xs * ch - sh) / xs**2)
            S2 = np.where(small, 1.0 / 3.0 + x * x / 10.0 + x**4 / 168.0,
                          (xs * xs * sh - 2.0 * xs * ch + 2.0 * sh) / xs**3)
        return S, w * S1, w * w * S2

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x - self.center) <= self.half_width
        return np.where(inside, self.mass / (2.0 * self.half_width), 0.0)


class TiltedKernel(Kernel):
    """scale * base(x) * exp(-lam x) for families not closed under tilting."""

    def __init__(self, base: Kernel, lam: float, scale: float = 1.0):
        a, b = base.domain()
        if not a < lam < b:
            raise TransformDomainError(
                f"tilt {lam} outside the base transform domain ({a}, {b})"
            )
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        self.base = base
        self.lam = lam
        self.scale = scale

    @property
    def mass(self) -> float:
        return float(np.real(self.scale * self.base.laplace(self.lam)))

    def domain(self) -> tuple[float, float]:
        a, b = self.base.domain()
        return a - self.lam, b - self.lam

    def laplace(self, z):
        return self.scale * self.base.laplace(np.asarray(z) + self.lam)

    def moment1(self, z):
        return self.scale * self.base.moment1(np.asarray(z) + self.lam)

    def moment2(self, z):
        return self.scale * self.base.moment2(np.asarray(z) + self.lam)

    def density(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.atleast_1d(np.asarray(self.base.density(x), dtype=float))
        # log-space product, zero where the base density is zero: the tilt
        # factor alone overflows far outside the base's support
        out = np.zeros_like(base)
        pos = base > 0.0
        out[pos] = self.scale * np.exp(np.log(base[pos]) - self.lam * x[pos])
        return float(out[0]) if scalar else out

    def shifted(self, s: float) -> "TiltedKernel":
        # scale base(x - s) e^{-lam (x - s)} = (scale e^{lam s}) base(x - s) e^{-lam x}
        return TiltedKernel(self.base.shifted(s), self.lam,
                            self.scale * math.exp(self.lam * s))

    def tilted(self, lam: float) -> "TiltedKernel":
        return TiltedKernel(self.base, self.lam + lam, self.scale)

    def scaled(self, c: float) -> "TiltedKernel":
        return TiltedKernel(self.base, self.lam, self.scale * c)


def quadrature_laplace(kernel: Kernel, z):
    """Adaptive-quadrature evaluation of L(z), used to validate closed forms.

    Real z only.  Splits the axis at the kernel's centre of mass so the two
    half-line integrals are well behaved; each is integrated to an
    absolute tolerance of 1e-12.
    """
    from scipy.integrate import quad

    z = float(z)
    _check_domain(kernel.domain(), z)
    if isinstance(kernel, Dirac):
        return kernel.mass * math.exp(-z * kernel.shift)
    centre = float(np.real(kernel.moment1(0.0))) / kernel.mass if kernel.mass > 0 else 0.0

    def f(y):
        # log-space product: the naive density * exp(-z y) hits 0 * inf
        # in the far tails where the true integrand underflows
        d = float(kernel.density(y))
        if d <= 0.0:
            return 0.0
        return math.exp(min(math.log(d) - z * y, 690.0))

    left, _ = quad(f, -np.inf, centre, epsabs=1e-12, limit=400)
    right, _ = quad(f, centre, np.inf, epsabs=1e-12, limit=400)
    return left + right


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscreteKernel:
    """Grid realisation of a kernel for circular convolution.

    Either ``samples`` holds density values in FFT offset order (index m is
    the signed offset m*dx, already renormalised so that sum*dx = mass), or
    ``shift_cells`` marks an exact index-shift operator (Dirac case).
    """

    n: int
    dx: float
    mass: float
    samples: np.ndarray | None = None
    shift_cells: int | None = None
    lost_mass: float = 0.0


def discretize(kernel: Kernel, grid) -> DiscreteKernel:
    """Sample a kernel on a periodic grid for use in circular convolutions.

    The caller is responsible for choosing a domain several decay lengths
    wide; mass lost to truncation beyond 1e-12 of the total triggers a
    warning diagnostic.  Dirac kernels are returned as exact index shifts
    and require their shift to sit on the grid.
    """
    n, dx = grid.n, grid.dx
    if isinstance(kernel, Dirac):
        cells = kernel.shift / dx
        cells_round = round(cells)
        if abs(cells - cells_round) > 1e-9:
            raise ValueError(
                f"Dirac shift {kernel.shift} is not a grid multiple "
                f"(dx={dx}); choose the grid so shift/dx is an integer"
            )
        return DiscreteKernel(n=n, dx=dx, mass=kernel.mass,
                              shift_cells=int(cells_round) % n)

    m = np.arange(n)
    offsets = ((m + n // 2) % n - n // 2) * dx  # signed offsets, FFT order
    samples = np.asarray(kernel.density(offsets), dtype=float)
    raw = samples.sum() * dx
    lost = kernel.mass - raw
    if kernel.mass > 0 and abs(lost) > 1e-12 * kernel.mass:
        warnings.warn(
            f"kernel truncation discards {lost:.3e} of mass {kernel.mass:.3e}; "
            f"enlarge the domain",
            RuntimeWarning,
        )
    if raw > 0:
        samples = samples * (kernel.mass / raw)
    return DiscreteKernel(n=n, dx=dx, mass=kernel.mass, samples=samples,
                          lost_mass=float(lost))


# ---------------------------------------------------------------------------
# config form

_FAMILIES = {
    "dirac": Dirac,
    "gaussian": Gaussian,
    "shifted_gaussian": Gaussian,  # alias kept for existing configs
    "laplace": LaplaceKernel,
    "uniform": UniformKernel,
}


def kernel_from_dict(d: dict) -> Kernel:
    """Build a kernel from a config mapping {family, parameters...}."""
    d = dict(d)
    family = d.pop("family", None)
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown kernel family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    try:
        return _FAMILIES[family](**d)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kernel family {family!r}: {exc}") from None
