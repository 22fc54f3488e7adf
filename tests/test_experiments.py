"""Experiment wrappers: tuning, log-drift fit, verdicts, stability gate."""

import math

import numpy as np
import pytest

from delaykpp import (ConfigError, Dirac, Gaussian, LaplaceKernel,
                      LevelSetTrace, SpeedPair, UniformKernel, bridge_check,
                      critical_speeds, extinction_experiment, logdrift_fit,
                      mckean_experiment, preset, spreading_experiment,
                      tune_kernel_shift, verdict_stability)

SPEEDS = SpeedPair(c_minus=-0.8, c_plus=0.8, lambda_minus=-0.6,
                   lambda_plus=0.6, residuals=(0.0, 0.0, 0.0, 0.0))


def _trace(times, m_minus):
    n = times.size
    return LevelSetTrace(beta=0.3, times=times, m_minus=m_minus,
                         m_plus=np.zeros(n), M=np.zeros(n),
                         M_star=np.zeros(n))


def test_logdrift_fit_recovers_synthetic_slope():
    t = np.linspace(1.0, 100.0, 200)
    a, b = 1.7, -2.5
    tr = _trace(t, a + b * np.log(t) - SPEEDS.c_plus * t)
    fit = logdrift_fit(tr, SPEEDS)
    assert fit.coefficient == pytest.approx(b, abs=1e-10)
    assert fit.intercept == pytest.approx(a, abs=1e-9)
    assert fit.stderr < 1e-8
    assert fit.ref_half == pytest.approx(1.0 / 1.2)
    assert fit.ref_three_half == pytest.approx(3.0 / 1.2)


def test_logdrift_fit_flat_drift_gives_zero_slope():
    t = np.linspace(1.0, 100.0, 200)
    tr = _trace(t, 0.4 - SPEEDS.c_plus * t)
    fit = logdrift_fit(tr, SPEEDS)
    assert abs(fit.coefficient) < 1e-10


def test_logdrift_fit_refuses_sparse_window():
    t = np.linspace(1.0, 100.0, 24)  # only 18 samples land in [T/4, T]
    tr = _trace(t, -SPEEDS.c_plus * t)
    with pytest.raises(ConfigError, match="log-drift fit refused"):
        logdrift_fit(tr, SPEEDS)


@pytest.mark.parametrize("h", [0.0, 1.0], ids=["h0", "h1"])
@pytest.mark.parametrize("base", [Dirac(0.0, 1.0), LaplaceKernel(1.0),
                                  UniformKernel(1.0), Gaussian(0.0, 1.0, 1.0)],
                         ids=["dirac", "laplace", "uniform", "gaussian"])
def test_tune_kernel_shift_hits_margin(base, h):
    tuned, shift = tune_kernel_shift(base, 2.0, h, margin=0.05)
    if isinstance(base, Gaussian) and h == 1.0:
        assert shift == pytest.approx(2.3134, abs=2e-3)
    sp = critical_speeds(tuned, 2.0, h)
    assert sp.c_plus == pytest.approx(-0.05, abs=1e-12)
    assert sp.c_minus < sp.c_plus < 0.0


def test_tune_kernel_shift_noop_when_already_negative():
    base = Gaussian(3.0, 1.0, 1.0)  # pre-shifted past the sign change
    tuned, shift = tune_kernel_shift(base, 2.0, 1.0, margin=0.05)
    assert shift == 0.0
    assert tuned is base


def test_tune_kernel_shift_capped():
    with pytest.raises(ConfigError, match="kernel tuning failed"):
        tune_kernel_shift(Gaussian(0.0, 1.0, 1.0), 2.0, 1.0,
                          margin=0.05, max_shift=1.0)


def test_bridge_check_passes_on_dirac_preset():
    rep = bridge_check(preset("bridge-dirac"))
    assert rep.verdict == "pass"
    for branch in ("plus", "minus"):
        assert rep.metrics[f"tangency_gamma_residual_{branch}"] < 1e-8
        assert rep.metrics[f"tangency_z_residual_{branch}"] < 1e-8
    assert rep.metrics["frame_violation"] <= 1e-8 * rep.metrics["frame_scale"]


def test_bridge_check_rejects_zero_delay():
    # at h = 0 the linear run samples its own fixed times, which the KPP
    # snapshots do not share; refuse rather than compare mismatched times
    with pytest.raises(ConfigError, match="field 'h'"):
        bridge_check({**preset("bridge-dirac"), "h": 0.0})


def test_mckean_inconclusive_when_level_unreached():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 2.0,
           "u0": {"amplitude": 0.05, "width": 2.0}}
    rep = mckean_experiment(cfg)
    assert rep.verdict == "inconclusive"


def test_mckean_short_symmetric_run_mirrors():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 128.0, "n": 1024, "h": 1.0, "n_h": 32, "T": 30.0}
    rep = mckean_experiment(cfg)
    assert min(rep.metrics["attained_counts"]) >= 4
    assert rep.metrics["mirror_gap"] < 1e-8
    assert rep.metrics["clamp_count"] == 0
    assert rep.trace is not None
    fit = logdrift_fit(rep.trace, SPEEDS)  # structural: enough samples
    assert fit.n_samples >= 20


def test_spreading_pass_and_domain_guard():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 128.0, "n": 1024, "h": 1.0, "n_h": 32, "T": 40.0}
    rep = spreading_experiment(cfg)
    assert rep.verdict == "pass"
    kappa = rep.metrics["kappa"]
    assert rep.metrics["eps0_hat"] > 1e-3 * kappa
    assert math.isfinite(rep.metrics["widened_min_at_T"])
    with pytest.raises(ConfigError, match="domain too small"):
        spreading_experiment({**cfg, "L": 64.0, "n": 256, "T": 50.0})


def test_extinction_persistence_control():
    cfg = {"kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                      "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 256.0, "n": 1024, "h": 1.0, "n_h": 32, "T": 20.0,
           "expect": "persistence"}
    rep = extinction_experiment(cfg)
    assert rep.verdict == "pass"
    assert rep.metrics["shift"] == 0.0
    assert rep.metrics["sup_final"] >= 0.1 * math.log(2.0)


def test_extinction_sup_verdict_fails_on_travelling_packet():
    # same-sign speeds move the packet but cannot pull the grid sup below
    # threshold at this horizon: the sup verdict must come back "fail"
    cfg = {"kernel": {"family": "dirac", "shift": 3.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 256.0, "n": 2048, "h": 1.0, "n_h": 32, "T": 15.0,
           "tune": False}
    rep = extinction_experiment(cfg)
    assert rep.metrics["speed_product"] > 0.0
    assert rep.verdict == "fail"
    assert rep.metrics["sup_final"] > rep.metrics["sup_threshold"]
    for key in ("one_sided_C", "one_sided_ratio", "ray_sup_final",
                "window_sup_final", "probe_u_final"):
        assert key in rep.metrics


def test_extinction_validation():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 64.0, "n": 256, "h": 1.0, "n_h": 8, "T": 2.0,
           "expect": "both"}
    with pytest.raises(ConfigError, match="unknown expectation"):
        extinction_experiment(cfg)


def test_build_common_errors():
    with pytest.raises(ConfigError, match="missing required field 'kernel'"):
        mckean_experiment({"birth": {"family": "nicholson", "p": 2.0},
                           "L": 64.0, "n": 256, "h": 1.0, "T": 1.0})
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 64.0, "n": 256, "h": 1.0, "T": 1.0, "beta": 5.0}
    with pytest.raises(ConfigError, match="beta must lie"):
        mckean_experiment(cfg)


def test_verdict_stability_gate():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 96.0, "n": 512, "h": 1.0, "n_h": 16, "T": 20.0}
    out = verdict_stability(spreading_experiment, cfg, ["eps0_hat"])
    assert out["verdict_stable"]
    assert out["metrics_stable"]
    assert len(out["verdicts"]) == 3
    assert out["moves"]["eps0_hat"] < 0.05


def test_report_to_dict_round_trips_metrics():
    cfg = {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 2.0,
           "u0": {"amplitude": 0.05, "width": 2.0}}
    rep = mckean_experiment(cfg)
    d = rep.to_dict()
    assert d["name"] == "mckean"
    assert d["verdict"] == rep.verdict
    assert d["metrics"] == rep.metrics
    assert "trace" not in d
