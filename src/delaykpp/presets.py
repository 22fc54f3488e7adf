"""Named, frozen run configurations.

Each preset is a plain JSON-serializable mapping in the same schema the
CLI loads from ``--config`` files, with the dispatching ``command`` key
included, so ``json.dump(preset(name), f)`` produces a runnable config.
The parameter choices are the ones the acceptance studies were sized on:
domains large enough that no front reaches the periodic seam inside the
horizon, and step counts on the safe side of the stencil guideline
dt >= dx^2/3.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

__all__ = ["preset", "preset_names"]

_GAUSS = {"family": "gaussian", "mean": 0.0, "stddev": 1.0, "mass": 1.0}
_DIRAC = {"family": "dirac", "shift": 0.0, "mass": 1.0}
_NICHOLSON = {"family": "nicholson", "p": 2.0, "a": 1.0}

_PRESETS: dict[str, dict] = {
    # closed-form speed anchor: c_plus = lambda_plus = sqrt(ln 2)
    "speeds-dirac": {
        "command": "speeds",
        "kernel": _DIRAC,
        "gprime0": 2.0,
        "h": 1.0,
    },
    # decay pair and tangency of the desk configuration
    "char-desk": {
        "command": "char",
        "kernel": _GAUSS,
        "params": {"m": 0.2, "p": -1.2, "h": 1.0},
        "z0": 0.0,
    },
    # front drift residual study, both edges
    "mckean-dirac-nicholson": {
        "command": "experiment",
        "experiment": "mckean",
        "kernel": _DIRAC,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 640.0,
        "n": 4096,
        "T": 200.0,
    },
    # same run, log-coefficient fit instead of the boundedness verdict
    "logdrift-dirac-nicholson": {
        "command": "experiment",
        "experiment": "logdrift",
        "kernel": _DIRAC,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 640.0,
        "n": 4096,
        "T": 200.0,
    },
    # rightward-shifted kernel until both edge speeds are negative
    "extinction-tuned": {
        "command": "experiment",
        "experiment": "extinction",
        "kernel": _GAUSS,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 1408.0,
        "n": 8192,
        "T": 150.0,
        "tune": True,
        "tune_margin": 0.5,
        "window_halfwidth": 20.0,
        "probe_x": 0.0,
    },
    # symmetric control: the packet fills the cone and persists
    "persistence-control": {
        "command": "experiment",
        "experiment": "extinction",
        "kernel": _GAUSS,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 512.0,
        "n": 4096,
        "T": 150.0,
        "tune": False,
        "expect": "persistence",
    },
    # interior-cone lower bound in the symmetric case
    "spreading-symmetric": {
        "command": "experiment",
        "experiment": "spreading",
        "kernel": _GAUSS,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 512.0,
        "n": 4096,
        "T": 150.0,
    },
    # moving-frame tangency bridge, closed-form kernel
    "bridge-dirac": {
        "command": "experiment",
        "experiment": "bridge",
        "kernel": _DIRAC,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 80.0,
        "n": 1024,
        "T": 4.0,
    },
    "bridge-gaussian": {
        "command": "experiment",
        "experiment": "bridge",
        "kernel": _GAUSS,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 80.0,
        "n": 1024,
        "T": 4.0,
    },
    # linear desk run with the sqrt(t)-scaled decay diagnostics
    "desk-tangency-linear": {
        "command": "simulate-linear",
        "kernel": _GAUSS,
        "params": {"m": 0.2, "p": -1.2, "h": 1.0},
        "L": 360.0,
        "n": 4096,
        "T": 200.0,
        "n_h": 512,
        "out_every": 512,
        "u0": {"amplitude": 1.0, "width": 1.4142135623730951, "center": 0.0},
        "snapshot_stride": 50,
        "diagnostics": {"z0": 0.0, "probe_x": 0.0, "tangency": True},
    },
    # heat reduction: zero-mass kernel, m = p = 0
    "heat-control-linear": {
        "command": "simulate-linear",
        "kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                   "mass": 0.0},
        "params": {"m": 0.0, "p": 0.0, "h": 1.0},
        "L": 360.0,
        "n": 4096,
        "T": 100.0,
        # the step this run has always taken (an RK4 stability raise of
        # the configured 64 once chose it), so outputs keep their times
        "n_h": 512,
        "out_every": 64,
        "u0": {"amplitude": 1.0, "width": 1.4142135623730951, "center": 0.0},
        "snapshot_stride": 50,
        "diagnostics": {"z0": 0.0, "probe_x": 0.0, "tangency": False},
    },
    # Fourier-synthesized fundamental solution, gate-passing kernel
    "fundamental-gaussian": {
        "command": "fundamental",
        "kernel": _GAUSS,
        "params": {"m": 0.0, "p": -1.0, "h": 0.25},
        "t_min": 0.02,
        "x_span": 40.0,
        "identity_times": [0.5, 0.1, 0.02],
        "residual_t": 0.5,
    },
    # short nonlinear run with the level trace, CLI smoke scale
    "kpp-short": {
        "command": "simulate-kpp",
        "kernel": _GAUSS,
        "birth": _NICHOLSON,
        "h": 1.0,
        "n_h": 64,
        "L": 256.0,
        "n": 2048,
        "T": 40.0,
    },
    # smooth-data config for the two-route linear solver agreement
    "xval-smooth": {
        "command": "simulate-linear",
        "kernel": _GAUSS,
        "params": {"m": 0.4, "p": -0.8, "h": 1.0},
        "L": 64.0,
        "n": 2048,
        "T": 5.0,
        # the step this run has always taken (an RK4 stability raise of
        # the configured 64 once chose it), so outputs keep their times
        # and the CSV its 317 x 2048 rows
        "n_h": 4044,
        "out_every": 64,
        "u0": {"amplitude": 1.0, "width": 2.8284271247461903, "center": 0.0},
    },
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> dict:
    """Deep copy of a named configuration; ConfigError on unknown names."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset '{name}'; available: {', '.join(preset_names())}")
    return copy.deepcopy(_PRESETS[name])
