"""The gated workloads: which preset each one runs, what it must write, and
how a workload seed turns the preset into a run config.

Seed 0 runs the preset unchanged; it is the run checked against the
reference values in references.json.  Any other seed moves only the
initial bump: its amplitude by at most 1% and its centre by at most
``CENTRE_CELLS`` grid cells.  Grid, horizon, n_h, kernel and birth stay
fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import random

CENTRE_CELLS = 3.0
AMPLITUDE_REL = 0.01

# Report keys are dotted paths into the JSON report.  "checked" keys are
# compared with the seed-0 references, "exact" keys must match them to
# EXACT_RTOL on every seed (they do not depend on the bump), and "edge" is
# the report's periodic-edge contact fraction, which must stay at or below
# EDGE_MAX on every seed.  "floors" are absolute tolerance floors for checked
# values at the rounding level (an edge fraction of 1e-15, a mirror gap that
# is zero by symmetry): their refinement moves measure rounding, not
# discretisation error (see make_references.py).
EXACT_RTOL = 1e-9
EDGE_MAX = 1e-8

WORKLOADS: dict[str, dict] = {
    "linear-xval": {
        "preset": "xval-smooth",
        "report": "linear_report.json",
        "csv": ["linear_snapshots.csv"],
        "checked": ["final_sup", "edge_fraction"],
        "exact": [],
        "edge": "edge_fraction",
        "floors": {"edge_fraction": 1e-12},
    },
    "kpp-extinction": {
        "preset": "extinction-tuned",
        "report": "extinction_report.json",
        "csv": [],
        "checked": ["metrics.shift", "metrics.c_plus", "metrics.sup_final",
                    "metrics.ray_sup_final", "metrics.window_sup_final"],
        "exact": ["metrics.shift", "metrics.c_plus", "metrics.c_minus"],
        "edge": "metrics.edge_fraction",
        "floors": {},
    },
    "kpp-dirac": {
        "preset": "mckean-dirac-nicholson",
        "report": "mckean_report.json",
        "csv": ["mckean_levels.csv"],
        "checked": ["metrics.M_min_first_half", "metrics.M_min_last_half",
                    "metrics.M_star_max_first_half",
                    "metrics.M_star_max_last_half", "metrics.B_empirical",
                    "metrics.mirror_gap"],
        "exact": ["metrics.c_plus", "metrics.c_minus",
                  "metrics.lambda_plus", "metrics.lambda_minus"],
        "edge": "metrics.edge_fraction",
        "floors": {"metrics.mirror_gap": 1e-9},
    },
}


def _bump_defaults(cfg: dict) -> dict:
    """The u0 bump the program would build from this config by default."""
    from delaykpp.birth import birth_from_dict

    spec = dict(cfg.get("u0", {}))
    if "amplitude" not in spec:
        # experiments default to 0.9 kappa, simulate-linear to 1.0
        spec["amplitude"] = (0.9 * birth_from_dict(cfg["birth"]).kappa
                             if "birth" in cfg else 1.0)
    spec.setdefault("width", 2.0)
    spec.setdefault("center", 0.0)
    return spec


def make_config(workload: str, seed: int) -> dict:
    """Run config for one workload and seed (see the module docstring)."""
    from delaykpp.presets import preset

    cfg = preset(WORKLOADS[workload]["preset"])
    if seed == 0:
        return cfg
    rng = random.Random(f"{workload}/{seed}")
    u0 = _bump_defaults(cfg)
    dx = float(cfg["L"]) / int(cfg["n"])
    u0["amplitude"] *= 1.0 + rng.uniform(-AMPLITUDE_REL, AMPLITUDE_REL)
    u0["center"] += rng.uniform(-CENTRE_CELLS, CENTRE_CELLS) * dx
    cfg["u0"] = u0
    return cfg
