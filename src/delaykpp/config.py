"""What each config field means: its type, default and allowed range.

A config is one JSON object.  Every field is read here, through typed
getters that name the field (dotted for nested ones, e.g. ``u0.amplitude``)
in every error, so a bad value is a ConfigError and never a traceback.
Numbers are finite JSON numbers (not booleans); counts are integral
numbers >= 1; objects are JSON objects; flags are true/false.  A field
given as null is a bad value, not a request for the default.  A run that
would take more than grids.MAX_STEPS steps, or whose history ring or
snapshot array would pass grids.MAX_BYTES, is refused before it starts.

Field reference (subcommands that read the field in brackets; "exp" is
every ``experiment``):

``command``  string, required: speeds | char | simulate-linear |
    fundamental | simulate-kpp | experiment | verify.
``experiment``  string [experiment]: mckean | extinction | spreading |
    bridge | logdrift; may instead follow ``experiment`` on the command
    line.
``kernel``  object, required [all but verify]: ``family`` (string) plus
    finite-number parameters.  dirac: shift, mass; gaussian (alias
    shifted_gaussian): mean, stddev > 0, mass; laplace: rate > 0, center,
    mass; uniform: half_width > 0, center, mass.  mass >= 0, default 1;
    speeds and the KPP runs need g'(0) times the mass to exceed 1 (no
    front grows otherwise).  Parameters whose mass or first two moments
    overflow a float are refused.
``birth``  object [simulate-kpp, exp; speeds when gprime0 is absent]:
    ``family`` plus finite-number parameters.  nicholson: p > 1, a > 0;
    mackey_glass: p > 1, a > 0, q > 0; linear_cap: slope > 1, cap > 0.
``gprime0``  number [speeds]: g'(0); default the birth's slope.
``params``  object, required [char, simulate-linear, fundamental]:
    numbers ``m``, ``p`` and ``h`` >= 0, all required.
``h``  number >= 0, required [speeds, simulate-kpp, exp]: the delay.
    extinction needs h > 0.
``L``  number > 0, required [simulate-linear, simulate-kpp, exp]: period
    of the grid.
``n``  count, required [simulate-linear, simulate-kpp, exp]: grid points,
    a power of two >= 256.
``T``  number, required [simulate-linear, simulate-kpp, exp]: the
    horizon; > 0 for the KPP runs, and T/dt may not exceed
    grids.MAX_STEPS.
``n_h``  count [simulate-linear, simulate-kpp, exp]: steps per delay;
    default 64 (KPP_NH).
``out_every``  count [simulate-linear, simulate-kpp, mckean, logdrift]:
    steps between stored snapshots (the last step is always stored);
    default about 400 snapshots for simulate-linear, every quarter delay
    (default_out_every) for the KPP runs.
``snapshot_stride``  count, default 1 [simulate-linear, simulate-kpp]:
    write every k-th stored snapshot (and the last) to the CSV.
``u0``  object, default {} [simulate-linear, simulate-kpp, exp]: either
    ``constant`` (number), or a bump ``amplitude`` (number, default 1 for
    simulate-linear and 0.9 kappa otherwise), ``width`` (number > 0,
    default 2) and ``center`` (number, default 0).
``beta``  number in (0, kappa), default kappa/2 [simulate-kpp, exp]: the
    traced level; kappa is the birth's positive equilibrium.
``z0``  number, default 0 [char]: tilt of the decay pair.
``diagnostics``  object [simulate-linear]: when present, writes the decay
    diagnostics.  ``z0`` (number, default 0), ``tangency`` (flag, default
    true), ``probe_x`` (number, default 0).
``t_min``  number > 0, default 0.25 [fundamental]: smallest time the
    symbol grid resolves.
``x_span``  number > 0, default 40 [fundamental]: width of the x window.
``residual_t``  number, default 2 params.h [fundamental]: time of the PDE
    residual check; must exceed params.h.
``identity_times``  list of numbers > 0, default [0.5, 0.1, 0.02]
    [fundamental].
``expect``  string, default "extinction" [extinction]: extinction |
    persistence.
``tune``  flag, default true [extinction]: shift the kernel until
    c_plus = -tune_margin (only when expecting extinction).
``tune_margin``  number, default 0.5; ``max_shift`` number, default 32
    [extinction].
``window_halfwidth``  number, default 20; ``probe_x`` number, default 0
    [extinction]: where the pointwise metrics are read.
"""

from __future__ import annotations

import sys

import numpy as np

from .birth import birth_from_dict
from .characteristic import CharParams, _require_growth
from .errors import ConfigError
from .grids import Grid
from .kernels import Kernel, kernel_from_dict

__all__ = ["Fields", "kpp_inputs", "default_out_every", "KPP_NH"]

KPP_NH = 64  # default steps per delay of a KPP run
_REQUIRED = object()


def default_out_every(n_h: int) -> int:
    """KPP runs store a snapshot every quarter delay unless told otherwise."""
    return max(1, n_h // 4)


def _is_number(v) -> bool:
    # the bound also rejects NaN and integers too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_count(v) -> bool:
    return _is_number(v) and v >= 1 and float(v).is_integer()


class Fields:
    """Typed, named access to one JSON object of a config.

    Each getter returns the field's default when the field is absent
    (ConfigError when it has none) and raises ConfigError naming the field
    when its value has the wrong type or range.
    """

    def __init__(self, spec: dict, label: str = ""):
        self.spec = spec
        self.label = label

    def name(self, key) -> str:
        return f"{self.label}.{key}" if self.label else str(key)

    def _read(self, key, default, check, what: str):
        if key not in self.spec:
            if default is _REQUIRED:
                raise ConfigError(
                    f"config is missing required field '{self.name(key)}'")
            return default
        value = self.spec[key]
        if not check(value):
            raise ConfigError(f"field '{self.name(key)}' must be {what}, "
                              f"got {value!r}")
        return value

    # -- plain values --------------------------------------------------

    def number(self, key, default=_REQUIRED) -> float:
        return float(self._read(key, default, _is_number, "a finite number"))

    def positive(self, key, default=_REQUIRED) -> float:
        return float(self._read(key, default,
                                lambda v: _is_number(v) and v > 0,
                                "a finite number > 0"))

    def count(self, key, default=_REQUIRED) -> int | None:
        v = self._read(key, default, _is_count, "an integer >= 1")
        return None if v is None else int(v)

    def flag(self, key, default=_REQUIRED) -> bool:
        return self._read(key, default, lambda v: isinstance(v, bool),
                          "true or false")

    def text(self, key, default=_REQUIRED) -> str | None:
        return self._read(key, default, lambda v: isinstance(v, str),
                          "a string")

    def obj(self, key, default=_REQUIRED) -> Fields:
        return Fields(self._read(key, default, lambda v: isinstance(v, dict),
                                 "an object"), self.name(key))

    def numbers(self, key, default=_REQUIRED) -> list[float]:
        items = self._read(key, default, lambda v: isinstance(v, list),
                           "a list of numbers")
        listed = Fields(dict(enumerate(items)), self.name(key))
        return [listed.number(i) for i in range(len(items))]

    def delay(self) -> float:
        return float(self._read("h", _REQUIRED,
                                lambda v: _is_number(v) and v >= 0,
                                "a finite number >= 0"))

    # -- model objects -------------------------------------------------

    def _family(self, key, build):
        spec = self.obj(key)
        spec.text("family")
        for param in spec.spec:
            if param != "family":
                spec.number(param)
        try:
            return build(spec.spec)
        except ValueError as exc:
            raise ConfigError(f"field '{spec.label}': {exc}") from None

    def kernel(self) -> Kernel:
        kernel = self._family("kernel", kernel_from_dict)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = all(np.all(np.isfinite(fn(0.0))) for fn in
                             (kernel.laplace, kernel.moment1, kernel.moment2))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("field 'kernel': its mass or moments overflow "
                              "a float")
        return kernel

    def growing_kernel(self, gprime0: float) -> Kernel:
        """The kernel of a speeds or KPP run, where g'(0) times its mass
        must exceed 1."""
        kernel = self.kernel()
        try:
            _require_growth(kernel, gprime0)
        except ConfigError as exc:
            raise ConfigError(f"field 'kernel.mass': {exc}") from None
        return kernel

    def birth(self):
        return self._family("birth", birth_from_dict)

    def gprime0(self) -> float:
        if "gprime0" in self.spec:
            return self.number("gprime0")
        if "birth" in self.spec:
            return self.birth().gprime0
        raise ConfigError("config needs either 'gprime0' or a 'birth' spec")

    def params(self) -> CharParams:
        spec = self.obj("params")
        return CharParams(m=spec.number("m"), p=spec.number("p"),
                          h=spec.delay())

    def grid(self) -> Grid:
        return Grid(self.number("L"), self.count("n"))

    def u0(self, grid: Grid, amplitude: float) -> np.ndarray:
        spec = self.obj("u0", {})
        if "constant" in spec.spec:
            return np.full(grid.n, spec.number("constant"))
        amp = spec.number("amplitude", amplitude)
        width = spec.positive("width", 2.0)
        center = spec.number("center", 0.0)
        return amp * np.exp(-(((grid.x - center) / width) ** 2))


def kpp_inputs(cfg: dict) -> tuple:
    """(kernel, birth, grid, h, n_h, T, beta, u0): what every KPP run
    (simulate-kpp and each experiment) reads from its config."""
    f = Fields(cfg)
    birth = f.birth()
    kernel = f.growing_kernel(birth.gprime0)
    grid = f.grid()
    h = f.delay()
    n_h = f.count("n_h", KPP_NH)
    T = f.positive("T")
    kappa = birth.kappa
    beta = f.number("beta", 0.5 * kappa)
    if not 0.0 < beta < kappa:
        raise ConfigError(f"beta must lie in (0, kappa), got {beta}")
    return kernel, birth, grid, h, n_h, T, beta, f.u0(grid, 0.9 * kappa)
