"""What each config field means: its type, default and allowed range.

A config is one JSON object.  Every field is read here, through typed
getters that name the field (dotted for nested ones, e.g. ``u0.amplitude``)
in every error, so a bad value is a ConfigError and never a traceback.
Numbers are finite JSON numbers (not booleans); counts are integral
numbers >= 1; objects are JSON objects; flags are true/false.  A field
given as null is a bad value, not a request for the default.  A run that
would take more than grids.MAX_STEPS steps, or whose history ring or
snapshot array would pass grids.MAX_BYTES, is refused before it starts.
The ring's budget counts the arrays it allocates: n_h + 1 rows of
coupled modes with their derivative rows for simulate-linear, n_h + 1
rows of n values and no derivative rows for the KPP runs.

What a refusal names.  A refused config exits 1 with one line that names
the offending field by its dotted path.  It may name instead:

- the ``kernel`` or ``birth`` object, for a bad value of one of its
  parameters: a family checks its parameters together (Nicholson's p and
  a; a kernel whose mass or moments overflow a float), so its refusal is
  the object's;
- a field inside an object given in place of the whole object (the
  missing ``birth.family`` of ``"birth": {}``).

A value of the right type and range that is merely extreme (a birth p,
a kernel mass or a delay of 1e300) is not a bad config.  The run is
made, and if it overflows it is a failed run: the finiteness gate stops
it with "solution lost finiteness near t=...; last healthy output at
t=..." and exit 1.  That line names the gate, not a field, since the
solver cannot tell which value overflowed.

When a field is read.  Every field a run reads, nested ones included,
is read before its first solve: a refused config costs no solve time,
and the experiment runners take typed values, never the config.

Field reference.  The brackets name the subcommands that read the
field: a command, an experiment by its name, "exp" for every
experiment, "all" for every command and "all but verify".  They are the
table FIELD_READERS, and cli.run refuses, before it dispatches, a
top-level field that the invoked command or experiment does not read.

``command``  string, required [all]: speeds | char | simulate-linear |
    fundamental | simulate-kpp | experiment | verify.
``experiment``  string [exp]: mckean | extinction | spreading |
    bridge; may instead follow ``experiment`` on the command line.
``kernel``  object, required [all but verify]: ``family`` (string) plus
    finite-number parameters.  dirac: shift, mass; gaussian (alias
    shifted_gaussian): mean, stddev > 0, mass; laplace: rate > 0, center,
    mass; uniform: half_width > 0, center, mass.  mass >= 0, default 1;
    speeds and the KPP runs need g'(0) times the mass to exceed 1 (no
    front grows otherwise).  Parameters whose mass or first two moments
    overflow a float are refused.
``birth``  object [simulate-kpp, exp, speeds]: ``family`` plus
    finite-number parameters.  nicholson: p > 1, a > 0; mackey_glass:
    p > 1, a > 0, q > 0; linear_cap: slope > 1, cap > 0.  speeds checks
    it whenever it is given, and takes g'(0) from it when gprime0 is
    absent.
``gprime0``  number [speeds]: g'(0); default the birth's slope.
``params``  object, required [char, simulate-linear, fundamental]:
    numbers ``m``, ``p`` and ``h`` >= 0, all required.
``h``  number >= 0, required [speeds, simulate-kpp, exp]: the delay.
    extinction needs h > 0.
``L``  number > 0, required [simulate-linear, simulate-kpp, exp]: period
    of the grid.
``n``  count, required [simulate-linear, simulate-kpp, exp]: grid points,
    a power of two >= 256, and at most grids.MAX_BYTES / 16 (2**26): the
    shortest run's snapshot array, two rows of n floats, must fit the
    budget.  It is refused before any array of the grid's size exists.
``T``  number, required [simulate-linear, simulate-kpp, exp]: the
    horizon; > 0 for the KPP runs and >= 0 for simulate-linear, and
    T/dt may not exceed grids.MAX_STEPS.
``n_h``  count [simulate-linear, simulate-kpp, exp]: steps per delay;
    default 64 (grids.DEFAULT_N_H).  Refused at h = 0, where there is no
    delay to divide: simulate-linear solves exactly and the KPP runs step
    at min(1/64, T/64).
``out_every``  count [simulate-linear, simulate-kpp, mckean]:
    steps between stored snapshots (the last step is always stored);
    default about 400 snapshots for simulate-linear, every quarter delay
    (default_out_every) for the KPP runs.  Refused by simulate-linear at
    h = 0, which keeps the 257 times k T/256 (one when T = 0).
``snapshot_stride``  count, default 1 [simulate-linear, simulate-kpp]:
    write every k-th stored snapshot (and the last) to the CSV.
``u0``  object, default {} [simulate-linear, simulate-kpp, exp]: either
    ``constant`` (number), or a bump ``amplitude`` (number, default 1 for
    simulate-linear and 0.9 kappa otherwise), ``width`` (number > 0,
    default 2) and ``center`` (number, default 0).  Any other key, or a
    bump key next to ``constant``, is refused.
``beta``  number in (0, kappa), default kappa/2 [simulate-kpp, exp]: the
    traced level; kappa is the birth's positive equilibrium.
``z0``  number, default 0 [char]: tilt of the decay pair.
``diagnostics``  object [simulate-linear]: when present, writes the decay
    diagnostics, and then needs ``T`` > 0.  ``z0`` (number, default 0),
    ``tangency`` (flag, default true), ``probe_x`` (number, default 0);
    any other key is refused.
``t_min``  number > 0, default 0.25 [fundamental]: smallest time the
    symbol grid resolves.
``x_span``  number > 0, default 40 [fundamental]: width of the x window.
``residual_t``  number, default 2 params.h [fundamental]: time of the PDE
    residual check; must exceed params.h.
``identity_times``  list of numbers > 0, default [0.5, 0.1, 0.02]
    [fundamental]; a time too small for the symbol grid that t_min sets
    is refused.
``tune``  flag, default true [extinction]: shift the kernel until
    c_plus = -tune_margin.
``tune_margin``  number > 0, default 0.5 [extinction].
``max_shift``  number, default 32 [extinction].
``window_halfwidth``  number > 0, default 20 [extinction]: with
    ``probe_x``, where the pointwise metrics are read.
``probe_x``  number in [-L/2, L/2), default 0 [extinction].
"""

from __future__ import annotations

import sys

import numpy as np

from .birth import birth_from_dict
from .characteristic import CharParams, _require_growth
from .errors import ConfigError
from .grids import DEFAULT_N_H, Grid
from .kernels import Kernel, kernel_from_dict

__all__ = ["Fields", "kpp_inputs", "default_out_every", "KPP_AMPLITUDE",
           "FIELD_READERS", "EXPERIMENT_OPTIONS"]

KPP_AMPLITUDE = 0.9  # default bump amplitude of a KPP run, times kappa
_REQUIRED = object()

_EXP = ("mckean", "extinction", "spreading", "bridge")
_KPP = ("simulate-kpp", *_EXP)
_RUNS = ("simulate-linear", *_KPP)
_ALL_BUT_VERIFY = ("speeds", "char", "simulate-linear", "fundamental", *_KPP)


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

    def known(self, keys, reads: str = "", reader: str = "") -> None:
        """Refuse a key of this object outside keys; the refusal says
        who reads the object (reader, or else its label) and what it
        reads (reads, or else the keys)."""
        reader = reader or f"'{self.label}'"
        for key in self.spec:
            if key not in keys:
                raise ConfigError(f"field '{self.name(key)}' is not read: "
                                  f"{reader} reads "
                                  f"{reads or ', '.join(keys)}")

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

    def growing_kernel(self, gprime0: float, source: str) -> Kernel:
        """The kernel of a speeds or KPP run, where g'(0) times its mass
        must exceed 1; a refusal names kernel.mass and source, the field
        that gave g'(0)."""
        kernel = self.kernel()
        try:
            _require_growth(kernel, gprime0)
        except ConfigError as exc:
            raise ConfigError(
                f"fields 'kernel.mass' and '{source}': {exc}") from None
        return kernel

    def birth(self):
        return self._family("birth", birth_from_dict)

    def gprime0(self) -> tuple[float, str]:
        """g'(0) and the field that gave it: gprime0 if given, else the
        birth, which is checked whenever it is given."""
        birth = self.birth() if "birth" in self.spec else None
        if "gprime0" in self.spec:
            return self.number("gprime0"), "gprime0"
        if birth is not None:
            return birth.gprime0, "birth"
        raise ConfigError("config needs either 'gprime0' or a 'birth' spec")

    def params(self) -> CharParams:
        spec = self.obj("params")
        return CharParams(m=spec.number("m"), p=spec.number("p"),
                          h=spec.delay())

    def grid(self) -> Grid:
        return Grid(self.positive("L"), self.count("n"))

    def u0(self, amplitude: float):
        """The initial profile x -> u0(x), in closed form; its fields are
        read here, once."""
        spec = self.obj("u0", {})
        spec.known(("constant",) if "constant" in spec.spec else
                   ("amplitude", "width", "center"),
                   "constant alone, or amplitude, width and center")
        if "constant" in spec.spec:
            constant = spec.number("constant")
            return lambda x: np.full(np.shape(x), constant)
        amp = spec.number("amplitude", amplitude)
        width = spec.positive("width", 2.0)
        center = spec.number("center", 0.0)
        return lambda x: amp * np.exp(-(((x - center) / width) ** 2))


# experiment -> its options: the config fields it reads besides the KPP
# inputs, each with its getter; an absent one takes the runner's default
EXPERIMENT_OPTIONS = {
    "mckean": {"out_every": Fields.count},
    "extinction": {"tune": Fields.flag, "tune_margin": Fields.positive,
                   "max_shift": Fields.number,
                   "window_halfwidth": Fields.positive,
                   "probe_x": Fields.number}}


def _with_options(readers: dict) -> dict:
    """readers, with each experiment appended to the readers of its
    options."""
    for name, options in EXPERIMENT_OPTIONS.items():
        for key in options:
            readers[key] = (*readers.get(key, ()), name)
    return readers


# top-level field -> the commands that read it, an experiment by its name;
# the module docstring's bracket lists say the same
FIELD_READERS = _with_options({
    "command": (*_ALL_BUT_VERIFY, "verify"),
    "experiment": _EXP,
    "kernel": _ALL_BUT_VERIFY,
    "birth": (*_KPP, "speeds"),
    "gprime0": ("speeds",),
    "params": ("char", "simulate-linear", "fundamental"),
    "h": ("speeds", *_KPP),
    "L": _RUNS, "n": _RUNS, "T": _RUNS, "n_h": _RUNS, "u0": _RUNS,
    "out_every": ("simulate-linear", "simulate-kpp"),
    "snapshot_stride": ("simulate-linear", "simulate-kpp"),
    "beta": _KPP,
    "z0": ("char",),
    "diagnostics": ("simulate-linear",),
    **dict.fromkeys(("t_min", "x_span", "residual_t", "identity_times"),
                    ("fundamental",)),
})


def kpp_inputs(cfg: dict) -> tuple:
    """(kernel, birth, grid, h, n_h, T, beta, u0): what every KPP run
    (simulate-kpp and each experiment) reads from its config; u0 is the
    profile x -> u0(x)."""
    f = Fields(cfg)
    birth = f.birth()
    kernel = f.growing_kernel(birth.gprime0, "birth")
    grid = f.grid()
    h = f.delay()
    if h == 0.0 and "n_h" in cfg:
        raise ConfigError("field 'n_h' must be omitted when field 'h' is 0: "
                          "an undelayed run steps at min(1/64, T/64)")
    n_h = f.count("n_h", DEFAULT_N_H)
    T = f.positive("T")
    kappa = birth.kappa
    beta = f.number("beta", 0.5 * kappa)
    if not 0.0 < beta < kappa:
        raise ConfigError(f"field 'beta': beta must lie in (0, kappa) = "
                          f"(0, {kappa:.6g}), got {beta}")
    return kernel, birth, grid, h, n_h, T, beta, f.u0(KPP_AMPLITUDE * kappa)
