"""CLI contract: exit codes, file formats, determinism, dispatch."""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaykpp import cli, grids, solve_kpp, solve_linear
from delaykpp.cli import (_SnapshotCSV, _csv_lines, _fmt, _stream_csv,
                          _write_csv, main, run)
from delaykpp.config import Fields, default_out_every, kpp_inputs
from oracles import stored_snapshot_csv

SPEEDS_CFG = {"command": "speeds",
              "kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
              "gprime0": 2.0, "h": 1.0}

KPP_CFG = {"command": "simulate-kpp",
           "kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
           "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
           "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 3.0,
           "snapshot_stride": 8}

LINEAR_CFG = {"command": "simulate-linear",
              "params": {"m": 0.2, "p": -1.2, "h": 1.0},
              "kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                         "mass": 1.0},
              "L": 64.0, "n": 512, "T": 2.0, "snapshot_stride": 100,
              "u0": {"amplitude": 1.0, "width": 2.0},
              "diagnostics": {"z0": 0.0, "probe_x": 0.0, "tangency": False}}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_speeds_report_values_and_sorted_keys(tmp_path):
    cfg = _write_cfg(tmp_path, SPEEDS_CFG)
    assert main(["speeds", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    raw = (tmp_path / "speeds_report.json").read_text()
    pairs = json.loads(raw, object_pairs_hook=list)
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    data = dict(pairs)
    assert data["c_plus"] == pytest.approx(0.8325546111576977, abs=1e-12)
    assert data["c_minus"] == pytest.approx(-0.8325546111576977, abs=1e-12)
    assert abs(data["branch_plus"][2][1]) > 0.0  # sigma_m present


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, KPP_CFG)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["simulate-kpp", "--config", cfg, "--out", str(out), "--quiet"]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert set(first) == {"kpp_snapshots.csv", "kpp_levels.csv",
                          "kpp_report.json"}


def test_kpp_csv_headers(tmp_path):
    cfg = _write_cfg(tmp_path, KPP_CFG)
    assert main(["simulate-kpp", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    snaps = (tmp_path / "kpp_snapshots.csv").read_text().splitlines()
    levels = (tmp_path / "kpp_levels.csv").read_text().splitlines()
    assert snaps[0] == "t,x,u"
    assert levels[0] == "t,beta,m_minus,m_plus,attained"
    assert all(row.split(",")[4] in ("0", "1") for row in levels[1:])


def test_linear_diagnostics_nan_conventions(tmp_path):
    cfg = _write_cfg(tmp_path, LINEAR_CFG)
    assert main(["simulate-linear", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    diag = (tmp_path / "linear_diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,D,S"
    # tangency disabled: the D column is the textual nan sentinel
    assert all(row.split(",")[1] == "nan" for row in diag[1:])
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert "D_final" not in report  # only written when tangency runs
    assert report["S_max"] >= report["S_min"]
    snaps = (tmp_path / "linear_snapshots.csv").read_text().splitlines()
    assert snaps[0] == "t,x,u"


def test_linear_tangency_branch_writes_D(tmp_path):
    cfg = _write_cfg(tmp_path, _with(LINEAR_CFG, "diagnostics.tangency",
                                     True))
    assert run(cfg, str(tmp_path), quiet=True) == 0
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert math.isfinite(report["D_final"])
    assert {"gamma_m", "z_m", "sigma_m"} <= set(report)
    rows = (tmp_path / "linear_diagnostics.csv").read_text().splitlines()
    assert len(rows) > 2
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows[1:])


def test_fundamental_report(tmp_path):
    cfg = dict(json.loads(json.dumps(
        {"command": "fundamental",
         "params": {"m": 0.0, "p": -1.0, "h": 0.25},
         "kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                    "mass": 1.0},
         "t_min": 0.02, "x_span": 40.0, "residual_t": 0.5,
         "identity_times": [0.5, 0.1, 0.02]})))
    path = _write_cfg(tmp_path, cfg)
    assert main(["fundamental", "--config", path, "--out", str(tmp_path),
                 "--quiet"]) == 0
    report = json.loads((tmp_path / "fundamental_report.json").read_text())
    assert report["gate"] == "accepted"
    assert report["rho_residual"] < 1e-12
    assert report["pde_residual"] < 1e-5
    assert report["identity_strictly_decreasing"] is True


def test_experiment_verdict_exit_codes(tmp_path):
    # inconclusive mckean exits 2, bridge pass exits 0
    weak = {"command": "experiment", "experiment": "mckean",
            "kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
            "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
            "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 2.0,
            "u0": {"amplitude": 0.05, "width": 2.0}}
    path = _write_cfg(tmp_path, weak)
    assert main(["experiment", "mckean", "--config", path, "--out",
                 str(tmp_path), "--quiet"]) == 2
    report = json.loads((tmp_path / "mckean_report.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert (tmp_path / "mckean_levels.csv").exists()


def test_run_dispatches_on_command_field(tmp_path):
    cfg = _write_cfg(tmp_path, SPEEDS_CFG)
    assert run(cfg, str(tmp_path), quiet=True) == 0
    assert (tmp_path / "speeds_report.json").exists()


def test_run_requires_command_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"kernel": {"family": "dirac"}})
    assert run(cfg, str(tmp_path), quiet=True) == 1
    assert "missing required field 'command'" in capsys.readouterr().err


def test_malformed_json_names_file_and_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"command": "speeds",\n  "h": }')
    assert main(["speeds", "--config", str(p), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "broken.json" in err and "line 2" in err


def test_missing_field_names_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"command": "speeds", "h": 1.0,
                                "gprime0": 2.0})
    assert main(["speeds", "--config", cfg, "--quiet"]) == 1
    assert "missing required field 'kernel'" in capsys.readouterr().err


def test_csv_write_failing_midway_leaves_no_file(tmp_path):
    def rows():
        for i in range(10000):  # past the first written block
            yield (float(i), 0.5, 1.0)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        _write_csv(str(tmp_path / "snap.csv"), "t,x,u", _csv_lines(rows()))
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_one(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_command_consistency_check(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SPEEDS_CFG)
    assert main(["char", "--config", cfg, "--quiet"]) == 1
    assert "declares command 'speeds'" in capsys.readouterr().err


def test_experiment_name_consistency_check(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"command": "experiment",
                                "experiment": "bridge"})
    assert main(["experiment", "mckean", "--config", cfg, "--quiet"]) == 1
    assert "declares experiment 'bridge'" in capsys.readouterr().err


def test_unknown_experiment_lists_the_experiments(tmp_path, capsys):
    names = "mckean, extinction, spreading, bridge"
    cfg = _write_cfg(tmp_path, {"command": "experiment",
                                "experiment": "logdrift"})
    assert run(cfg, str(tmp_path), quiet=True) == 1
    assert f"unknown experiment 'logdrift'; choose from {names}\n" in \
        capsys.readouterr().err
    assert main(["experiment", "logdrift", "--config", cfg]) == 1
    assert "invalid choice: 'logdrift'" in capsys.readouterr().err
    cfg = _write_cfg(tmp_path, {"command": "experiment"})
    assert run(cfg, str(tmp_path), quiet=True) == 1
    assert f"missing required field 'experiment' (one of {names})" in \
        capsys.readouterr().err


def test_char_reports_desk_values(tmp_path):
    cfg = _write_cfg(tmp_path, {"command": "char",
                                "params": {"m": 0.2, "p": -1.2, "h": 1.0},
                                "kernel": {"family": "gaussian", "mean": 0.0,
                                           "stddev": 1.0, "mass": 1.0},
                                "z0": 0.0})
    assert main(["char", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    rep = json.loads((tmp_path / "char_report.json").read_text())
    assert rep["gamma0"] == pytest.approx(0.09754212184966865, abs=1e-12)
    assert rep["gamma_m"] == pytest.approx(0.10060137521391996, abs=1e-10)
    assert rep["z_m"] == pytest.approx(-0.0643474242293473, abs=1e-10)


def test_char_reports_a_tangency_error(tmp_path):
    # a far-shifted Dirac kernel with its drift: gamma0 solves, but the
    # tangency polish does not, and the report says so in place of the
    # tangency fields
    cfg = _write_cfg(tmp_path, {"command": "char",
                                "params": {"m": 37336.461753383934,
                                           "p": -1.0, "h": 0.0},
                                "kernel": {"family": "dirac", "shift": 1e5,
                                           "mass": 2.0}})
    assert run(cfg, str(tmp_path), quiet=True) == 0
    rep = json.loads((tmp_path / "char_report.json").read_text())
    assert set(rep) == {"gamma0", "z0", "tangency_error"}
    assert rep["tangency_error"].startswith("tangency polish stalled")


def test_kpp_constant_u0_stays_at_kappa(tmp_path):
    # kappa of Nicholson p 2, a 1 is ln 2; constant data fills the whole
    # domain, so its edge fraction is 1 and the edge warning is expected
    kappa = 0.6931471805599453
    cfg = _write_cfg(tmp_path, {**KPP_CFG, "u0": {"constant": kappa}})
    with pytest.warns(RuntimeWarning, match="periodic edge"):
        assert run(cfg, str(tmp_path), quiet=True) == 0
    rep = json.loads((tmp_path / "kpp_report.json").read_text())
    assert rep["kappa"] == kappa
    assert abs(rep["final_sup"] - kappa) <= 1e-14
    assert abs(rep["final_min"] - kappa) <= 1e-14


def test_verify_subcommand(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--quiet"]) == 0
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["all_passed"] is True
    assert len(rep["checks"]) == 5


MCKEAN_CFG = {"command": "experiment", "experiment": "mckean",
              "kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
              "birth": {"family": "nicholson", "p": 2.0, "a": 1.0},
              "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 2.0}
EXTINCTION_CFG = {**MCKEAN_CFG, "experiment": "extinction", "n_h": 8,
                  "tune_margin": 0.5}
CHAR_CFG = {"command": "char", "params": {"m": 0.2, "p": -1.2, "h": 1.0},
            "kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                       "mass": 1.0}}
FUNDAMENTAL_CFG = {"command": "fundamental",
                   "params": {"m": 0.0, "p": -1.0, "h": 0.25},
                   "kernel": {"family": "gaussian", "mean": 0.0,
                              "stddev": 1.0, "mass": 1.0}}
LAPLACE = {"family": "laplace", "rate": 1.0}
NAN = float("nan")


def _with(base, path, value):
    """Copy of base with the field at the dotted path set to value."""
    cfg = json.loads(json.dumps(base))
    *outer, key = path.split(".")
    spec = cfg
    for k in outer:
        spec = spec[k]
    spec[key] = value
    return cfg


LINEAR_H0_CFG = _with(LINEAR_CFG, "params.h", 0.0)

# refused by field in one error line, with no NumPy warning: a birth
# family given alone, a step h/n_h or cell L/n that is no normal double,
# and a symbol grid too large to allocate
CLEAN_HOSTILE = [
    (KPP_CFG, "birth", {"family": "nicholson"}),
    (KPP_CFG, "birth", {"family": "mackey_glass"}),
    (KPP_CFG, "birth", {"family": "linear_cap"}),
    (KPP_CFG, "h", 5e-324),
    (LINEAR_CFG, "params.h", 5e-324),
    (KPP_CFG, "L", 5e-324),
    (LINEAR_CFG, "L", 5e-324),
    (FUNDAMENTAL_CFG, "x_span", 1e16),
    (FUNDAMENTAL_CFG, "x_span", 1e300),
    (FUNDAMENTAL_CFG, "t_min", 1e-300),
]

HOSTILE = [
    (KPP_CFG, "kernel", 5),
    (KPP_CFG, "u0", {"amplitude": None}, "u0.amplitude"),
    (MCKEAN_CFG, "u0", 3),
    (LINEAR_CFG, "params.m", None),
    (LINEAR_CFG, "diagnostics", [1]),
    (LINEAR_CFG, "diagnostics.z0", None),
    # a tilt outside the kernel's transform strip (-1, 1)
    ({**LINEAR_CFG, "kernel": LAPLACE}, "diagnostics.z0", 5.0),
    ({**CHAR_CFG, "kernel": LAPLACE}, "z0", 5.0),
    (KPP_CFG, "beta", None),
    (EXTINCTION_CFG, "tune_margin", None),
    (KPP_CFG, "birth.p", None),
    (FUNDAMENTAL_CFG, "identity_times", 5),
    (KPP_CFG, "kernel", {"family": "gaussian", "stddev": NAN},
     "kernel.stddev"),
    (KPP_CFG, "T", NAN),
    (KPP_CFG, "out_every", 0),
    (KPP_CFG, "snapshot_stride", 0),
    (LINEAR_CFG, "n_h", 0),
    # the exact h = 0 solution takes no step, so it has no use for these,
    # and it refuses a negative horizon as the stepped solver does
    (LINEAR_H0_CFG, "n_h", 8),
    (LINEAR_H0_CFG, "out_every", 100),
    (LINEAR_H0_CFG, "T", -5.0),
    # an undelayed KPP run steps at min(1/64, T/64), whatever n_h says
    ({**KPP_CFG, "h": 0.0}, "n_h", 16),
    (SPEEDS_CFG, "h", -1),
    ({**MCKEAN_CFG, "experiment": "bridge"}, "h", 0.0),
    (KPP_CFG, "n", 256.7),
    (KPP_CFG, "n", 1e300),
    (KPP_CFG, "command", "1"),
    (MCKEAN_CFG, "experiment", "1"),
    (SPEEDS_CFG, "h", 1e300),
    (LINEAR_CFG, "params.h", 1e300),
    # a delay so long that T = 2 would take no step of h/n_h
    ({k: v for k, v in LINEAR_CFG.items() if k != "diagnostics"},
     "params.h", 1e299, "T"),
    (LINEAR_CFG, "L", -1.0),
    # step budget: rejected before any ring or output array exists
    (KPP_CFG, "T", 1e300),
    (MCKEAN_CFG, "T", 1e300),
    (LINEAR_CFG, "T", 1e300),
    (KPP_CFG, "T", 1e9),
    # dt = h/n_h: a step too small for the budget is n_h's as much as T's
    (LINEAR_CFG, "n_h", 1e300),
    (KPP_CFG, "n_h", 1e300),
    # speeds and KPP runs need g'(0) * mass > 1; simulate-linear does not
    (SPEEDS_CFG, "kernel.mass", 0.4),
    (SPEEDS_CFG, "gprime0", 0.5, "kernel.mass"),
    (SPEEDS_CFG, "gprime0", 0.9),
    ({"command": "speeds", "kernel": {"family": "dirac", "mass": 0.6},
      "birth": {"family": "nicholson", "p": 2.0, "a": 1.0}, "h": 1.0},
     "birth.p", 1.5, "birth"),
    # a birth given next to gprime0 is checked too
    ({**SPEEDS_CFG, "birth": {"family": "nicholson", "p": 2.0}},
     "birth.p", 0.5, "birth"),
    ({**KPP_CFG, "kernel": {"family": "gaussian", "stddev": 1.0}},
     "kernel.mass", 0.0),
    (MCKEAN_CFG, "kernel.mass", 0.4),
    (EXTINCTION_CFG, "kernel.mass", 0.0),
    # transforms that overflow a float at tilt 0
    (CHAR_CFG, "kernel.stddev", 1e300, "kernel"),
    (SPEEDS_CFG, "kernel.shift", 1e300, "kernel"),
    (KPP_CFG, "kernel.shift", 1e300, "kernel"),
    (LINEAR_CFG, "kernel.mean", 1e300, "kernel"),
    # the speeds solve but the frame tangency of the report cannot
    ({**SPEEDS_CFG, "h": 0.0}, "kernel.shift", -1e5, "kernel"),
    ({**SPEEDS_CFG, "h": 0.0}, "kernel.shift", 1e5, "kernel"),
    # g'(0) and the kernel overflow a float in the speed polish
    ({**SPEEDS_CFG, "kernel": {"family": "dirac", "shift": 1e5}},
     "gprime0", 1e300),
    ({**SPEEDS_CFG, "kernel": {"family": "dirac", "shift": -1e5}},
     "gprime0", 1e300, "kernel"),
    # values only the experiment or the synthesis can refuse; expect is
    # retired, and refused as any key that nothing reads
    (EXTINCTION_CFG, "h", 0.0),
    (EXTINCTION_CFG, "expect", "both"),
    (EXTINCTION_CFG, "max_shift", 0.5),
    (EXTINCTION_CFG, "tune_margin", -0.5),
    (EXTINCTION_CFG, "tune_margin", 0.0),
    (EXTINCTION_CFG, "window_halfwidth", -1.0),
    (EXTINCTION_CFG, "probe_x", 1e6),
    # the diagnostics range over the outputs after t = 0
    (LINEAR_CFG, "T", 0.0),
    ({**MCKEAN_CFG, "experiment": "spreading"}, "L", 8.0),
    (KPP_CFG, "beta", 5.0),
    (FUNDAMENTAL_CFG, "residual_t", 0.1),
    (FUNDAMENTAL_CFG, "identity_times", [-1.0]),
    (FUNDAMENTAL_CFG, "identity_times", [0.001]),
    # u0 and diagnostics refuse the keys they do not read
    (KPP_CFG, "u0", {"amplitud": 3}, "u0.amplitud"),
    (KPP_CFG, "u0", {"constant": 0.5, "amplitude": 3, "width": -1},
     "u0.amplitude"),
    (LINEAR_CFG, "diagnostics", {"z0": 0.0, "tangancy": False},
     "diagnostics.tangancy"),
    # so does the top-level object, against config.FIELD_READERS: a
    # misspelled key, or one that another command reads
    (KPP_CFG, "n_hh", 8),
    (KPP_CFG, "snapshot_strid", 8),
    (SPEEDS_CFG, "n_h", 8),
    (CHAR_CFG, "h", 1.0),
    (LINEAR_CFG, "beta", 0.5),
    (FUNDAMENTAL_CFG, "T", 1.0),
    (MCKEAN_CFG, "snapshot_stride", 2),
    (EXTINCTION_CFG, "out_every", 4),
    ({**MCKEAN_CFG, "experiment": "bridge"}, "tune", False),
    # c_minus -1.63 and c_plus 0.52: the cone's left end wraps at T = 60
    ({**MCKEAN_CFG, "experiment": "spreading", "n": 512,
      "kernel": {"family": "gaussian", "mean": 1.0}}, "T", 60.0, "L"),
    *CLEAN_HOSTILE,
]


def _hostile_ids(cases):
    """command-path=value for each case; where two cases share that id,
    each becomes command[:experiment]-path=value[->named], naming the
    experiment and the field its refusal names instead of path."""
    def full(base, path, value, *named):
        experiment = f":{base['experiment']}" if "experiment" in base else ""
        refused = f"->{named[0]}" if named else ""
        return f"{base['command']}{experiment}-{path}={value!r}{refused}"

    plain = [f"{c[0]['command']}-{c[1]}={c[2]!r}" for c in cases]
    return [p if plain.count(p) == 1 else full(*c)
            for p, c in zip(plain, cases)]


def test_hostile_ids_are_unique():
    ids = _hostile_ids(HOSTILE)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("case", HOSTILE, ids=_hostile_ids(HOSTILE))
def test_hostile_config_names_field(tmp_path, capsys, case):
    base, path, value, *named = case
    cfg = _write_cfg(tmp_path, _with(base, path, value))
    assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert f"'{named[0] if named else path}'" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]  # refused before any write


@pytest.mark.parametrize("case", CLEAN_HOSTILE,
                         ids=_hostile_ids(CLEAN_HOSTILE))
def test_hostile_config_is_one_clean_line(tmp_path, capsys, case):
    base, path, value = case
    cfg = _write_cfg(tmp_path, _with(base, path, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy warning fails the case
        assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"'{path}'" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("path, solver", [
    ("diagnostics.z0", "solve_linear"),
    ("diagnostics.tangency", "solve_linear"),
    ("diagnostics.probe_x", "solve_linear"),
    ("residual_t", "symbol_table"),
    ("identity_times", "symbol_table"),
])
def test_fields_are_read_before_the_solve(tmp_path, capsys, monkeypatch,
                                         path, solver):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{solver} ran before '{path}' was read")

    monkeypatch.setattr(cli, solver, unreachable)
    base = LINEAR_CFG if solver == "solve_linear" else FUNDAMENTAL_CFG
    cfg = _write_cfg(tmp_path, _with(base, path, "x"))
    assert run(cfg, str(tmp_path), quiet=True) == 1
    assert f"field '{path}'" in capsys.readouterr().err


def test_strip_z0_is_refused_before_the_solve(tmp_path, capsys,
                                              monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_linear ran before 'diagnostics.z0' "
                             "was checked against the transform strip")

    monkeypatch.setattr(cli, "solve_linear", unreachable)
    cfg = _write_cfg(tmp_path, _with({**LINEAR_CFG, "kernel": LAPLACE},
                                     "diagnostics.z0", 5.0))
    assert run(cfg, str(tmp_path), quiet=True) == 1
    assert ("field 'diagnostics.z0': z0=5.0 outside transform strip"
            in capsys.readouterr().err)


def test_extinction_tiny_horizon_takes_one_step(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**EXTINCTION_CFG, "L": 128.0, "n": 512,
                                "n_h": 16, "T": 1e-10,
                                "kernel": {"family": "gaussian",
                                           "stddev": 1.0}})
    assert run(cfg, str(tmp_path), quiet=True) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "extinction_report.json").read_text())
    assert report["metrics"]["horizon"] == 0.0625  # the one step dt = h/16


def test_overflowing_linear_run_exits_one_and_writes_nothing(tmp_path,
                                                            capsys):
    cfg = {k: v for k, v in LINEAR_CFG.items()
           if k not in ("diagnostics", "snapshot_stride")}
    cfg = {**cfg, "params": {**cfg["params"], "p": 400.0}, "n": 256,
           "T": 3.0, "n_h": 16}
    path = _write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one error line says it all
        assert run(path, str(tmp_path), quiet=True) == 1
    assert capsys.readouterr().err == (
        "error: solution lost finiteness near t=1.8125; last healthy "
        "output at t=1.75\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


# a KPP run that fails after it has streamed snapshot blocks: at the
# finiteness gate (the capped birth lets a kernel of mass 1e300 overflow
# from small data), or after the solve, when the speeds of the report
# overflow
FAILING_KPP = {
    "finiteness-gate": (
        {"kernel": {"family": "dirac", "shift": 0.0, "mass": 1e300},
         "birth": {"family": "linear_cap", "slope": 2.0, "cap": 1e300},
         "u0": {"amplitude": 1e-3, "width": 2.0}},
        "error: solution lost finiteness near t=1.25; last healthy output "
        "at t=1\n", 5),
    "speeds-after-the-solve": (
        {"kernel": {"family": "gaussian", "mean": 0.0, "stddev": 1.0,
                    "mass": 1e300}},
        "error: speed polish stalled on branch +1: residuals (nan, nan); "
        "g'(0) (field 'gprime0' or 'birth'), field 'kernel' and field 'h' "
        "overflow a float\n", 13),  # every output, t = 0 .. 3
}


@pytest.mark.parametrize("case", sorted(FAILING_KPP))
def test_failing_kpp_run_exits_one_and_writes_nothing(tmp_path, capsys,
                                                      monkeypatch, case):
    fields, message, blocks = FAILING_KPP[case]
    written = []
    block = cli._SnapshotCSV._block

    def counting_block(self, t, u):
        written.append(t)
        return block(self, t, u)

    monkeypatch.setattr(cli._SnapshotCSV, "_block", counting_block)
    path = _write_cfg(tmp_path, {**KPP_CFG, **fields, "snapshot_stride": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one error line says it all
        assert run(path, str(tmp_path), quiet=True) == 1
    assert capsys.readouterr().err == message
    assert len(written) == blocks  # streamed before the run failed
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_huge_kernel_mass_stops_at_the_finiteness_gate(tmp_path, capsys):
    # an extreme but valid mass is a failed run, not a bad field (config
    # docstring): the run overflows and the finiteness gate stops it
    path = _write_cfg(tmp_path, _with(LINEAR_CFG, "kernel.mass", 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one error line says it all
        assert run(path, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solution lost finiteness near t=")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_overflowing_first_birth_is_one_error_line(tmp_path, capsys):
    # F_0 = k0 * g(u0), formed before the first step, overflows; the
    # finiteness gate reports it, with no NumPy warning on the way
    cfg = {**KPP_CFG, "kernel": {"family": "dirac", "mass": 1e300},
           "birth": {"family": "linear_cap", "slope": 2.0, "cap": 1e300}}
    path = _write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solution lost finiteness near t=")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_huge_count_is_refused_in_one_short_line(tmp_path, capsys):
    # n = 1e300 is an integral float, read as a count; the refusal prints
    # it as 1e+300, not as its 301 digits
    path = _write_cfg(tmp_path, {**KPP_CFG, "n": 1e300})
    assert run(path, str(tmp_path), quiet=True) == 1
    assert capsys.readouterr().err == (
        "error: field 'n' must be a power of two >= 256, got 1e+300\n")


def test_top_level_field_is_refused_unless_the_invoked_run_reads_it(
        tmp_path, capsys):
    # mckean reads out_every and spreading sets its own, so the same key
    # is refused by one experiment and not by the other; the refusal names
    # the run and every field it reads
    spreading = {**MCKEAN_CFG, "experiment": "spreading", "L": 256.0,
                 "n": 1024, "out_every": 4}
    assert run(_write_cfg(tmp_path, spreading), str(tmp_path),
               quiet=True) == 1
    assert capsys.readouterr().err == (
        "error: field 'out_every' is not read: experiment 'spreading' reads "
        "command, experiment, kernel, birth, h, L, n, T, n_h, u0, beta\n")
    assert run(_write_cfg(tmp_path, {**spreading, "experiment": "mckean"}),
               str(tmp_path), quiet=True) in (0, 2)
    path = _write_cfg(tmp_path, {**KPP_CFG, "n_hh": 8})
    assert main(["simulate-kpp", "--config", path, "--out", str(tmp_path),
                 "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: field 'n_hh' is not read: command 'simulate-kpp' reads ")


def test_grid_too_large_for_any_run_is_refused_before_x(tmp_path, capsys,
                                                         monkeypatch):
    # the shortest run budgets two rows of n floats: 16 n bytes
    monkeypatch.setattr(grids, "MAX_BYTES", 16 * 1024 - 1)

    def no_x(self):
        raise AssertionError("Grid.x built for a refused n")

    monkeypatch.setattr(grids.Grid, "x", property(no_x))
    cfg = _write_cfg(tmp_path, {**KPP_CFG, "n": 1024})
    assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'n' = 1024: ")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_snapshot_budget_names_n_at_h0(tmp_path, capsys, monkeypatch):
    # the exact h = 0 solution keeps 257 snapshots; out_every is refused
    # there, so the refusal must point at n (and T) as well
    monkeypatch.setattr(grids, "MAX_BYTES", 8 * 256 * 200)
    cfg = _write_cfg(tmp_path, {**LINEAR_H0_CFG, "n": 256})
    assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert "fields 'n', 'out_every' and 'T'" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


# runs that fail inside the streamed snapshot CSV's write: a refusal of
# the solver before its first step, a linear run that overflows after
# several blocks and a KPP run stopped at the finiteness gate
FAILING_STREAMS = {
    "snapshot-budget": {**LINEAR_H0_CFG, "n": 256},
    "linear-overflow": {**{k: v for k, v in LINEAR_CFG.items()
                           if k != "diagnostics"},
                        "params": {**LINEAR_CFG["params"], "p": 400.0},
                        "n": 256, "T": 3.0, "n_h": 16},
    "kpp-finiteness": {**KPP_CFG, **FAILING_KPP["finiteness-gate"][0]},
}


@pytest.mark.parametrize("case", sorted(FAILING_STREAMS))
def test_failed_stream_leaves_no_output_directory_it_made(
        tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(grids, "MAX_BYTES", 8 * 256 * 200)
    cfg = _write_cfg(tmp_path, FAILING_STREAMS[case])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the error line is not the point
        assert run(cfg, str(tmp_path / "new" / "out"), quiet=True) == 1
        assert run(cfg, str(tmp_path / "empty"), quiet=True) == 1
        (tmp_path / "empty").mkdir()
        assert run(cfg, str(tmp_path / "empty"), quiet=True) == 1
    err = capsys.readouterr().err.splitlines()  # one refusal, three times
    assert len(err) == 3 and len(set(err)) == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "empty"]
    assert os.listdir(tmp_path / "empty") == []


def test_streamed_snapshot_csvs_match_the_stored_run(tmp_path, capsys):
    # the CSV text the CLI streams is the stored run's, value by value;
    # the summary counts every kept output, not only the written ones
    linear = {**LINEAR_CFG, "n": 256, "T": 1.3, "n_h": 16, "out_every": 2,
              "snapshot_stride": 3}
    f = Fields(linear)
    grid = f.grid()
    stored = solve_linear(f.params(), f.kernel(), grid, f.u0(1.0)(grid.x),
                          linear["T"], linear["n_h"], linear["out_every"])
    assert run(_write_cfg(tmp_path, linear), str(tmp_path)) == 0
    assert capsys.readouterr().out.startswith(
        f"simulate-linear: {stored.times.size} outputs to T=1.3, ")
    assert (tmp_path / "linear_snapshots.csv").read_text() == \
        stored_snapshot_csv(stored, 3)
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert report["final_sup"] == float(np.max(np.abs(stored.fields[-1])))

    kpp = {**KPP_CFG, "T": 2.4, "snapshot_stride": 2}
    kernel0, birth, grid, h, n_h, T, _, u0 = kpp_inputs(kpp)
    stored = solve_kpp(kernel0, birth, grid, u0(grid.x), T, h, n_h,
                       default_out_every(n_h))
    assert run(_write_cfg(tmp_path, kpp), str(tmp_path), quiet=True) == 0
    assert (tmp_path / "kpp_snapshots.csv").read_text() == \
        stored_snapshot_csv(stored, 2)
    report = json.loads((tmp_path / "kpp_report.json").read_text())
    assert report["final_sup"] == float(np.max(stored.fields[-1]))
    assert report["final_min"] == float(np.min(stored.fields[-1]))


def test_streamed_linear_run_holds_no_snapshot_array():
    # every kept snapshot goes to the CSV as the solver makes it: the peak
    # is the history ring (the Laplace kernel couples all n/2 + 1 modes:
    # value and derivative rows of complex entries) and temporaries of a
    # fixed size, not the 1281 x 512 snapshot array, ten times the ring.
    # The quarter of that array is the slack for the temporaries: the
    # step's block arrays (at most 3 x 128 KiB) and the delayed rows it
    # copies where the ring wraps, and one snapshot's block of text.  The
    # warm-up run imports and caches what a first run builds
    cfg = {**LINEAR_CFG, "kernel": LAPLACE, "L": 128.0, "n": 512,
           "T": 20.0, "n_h": 64, "out_every": 1, "snapshot_stride": 1}
    del cfg["diagnostics"]
    ring = 2 * (64 + 1) * (512 // 2 + 1) * 16
    snapshots = 8 * 512 * (20 * 64 + 1)
    assert snapshots >= 2 * ring
    bound = ring + snapshots // 4
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert run(path, out, quiet=True) == 0
        tracemalloc.start()
        try:
            assert run(path, out, quiet=True) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ring < peak < bound


def test_summary_lines_on_stdout(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SPEEDS_CFG)
    assert run(cfg, str(tmp_path), quiet=True) == 0
    assert capsys.readouterr().out == ""
    assert run(cfg, str(tmp_path)) == 0
    rep = json.loads((tmp_path / "speeds_report.json").read_text())
    assert capsys.readouterr().out == (
        f"speeds: c_minus={_fmt(rep['c_minus'])} "
        f"c_plus={_fmt(rep['c_plus'])}\n")
    assert main(["verify", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert capsys.readouterr().out == "".join(
        f"ok   {c['name']}: {c['detail']}\n" for c in rep["checks"])


def test_linear_horizon_zero_runs_without_diagnostics(tmp_path):
    cfg = {k: v for k, v in LINEAR_CFG.items() if k != "diagnostics"}
    assert run(_write_cfg(tmp_path, {**cfg, "T": 0.0}), str(tmp_path),
               quiet=True) == 0
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert report["T"] == 0.0


_FRAME_STALL = ("error: field 'kernel': frame tangency at the critical "
                "speeds failed: tangency polish stalled: residuals (")
_POLISH_OVERFLOW = ("error: speed polish stalled on branch +1: residuals "
                    "(nan, nan); g'(0) (field 'gprime0' or 'birth'), "
                    "field 'kernel' and field 'h' overflow a float\n")
# (shift, gprime0, h) of a Dirac kernel -> start of the one-line message
FAR_SHIFTED_SPEEDS = {
    (1e5, 2.0, 0.0): _FRAME_STALL, (1e5, 2.0, 1.0): _FRAME_STALL,
    (-1e5, 2.0, 0.0): _FRAME_STALL + "nan, nan)\n",
    (-1e5, 2.0, 1.0): _FRAME_STALL + "nan, nan)\n",
    **{(shift, 1e300, h): _POLISH_OVERFLOW
       for shift in (1e5, -1e5) for h in (0.0, 1.0)},
}


@pytest.mark.parametrize("case", sorted(FAR_SHIFTED_SPEEDS),
                         ids=lambda c: "shift={:g}-gprime0={:g}-h={:g}".format(*c))
def test_far_shifted_speeds_fail_without_numpy_warnings(tmp_path, capsys,
                                                         case):
    shift, gprime0, h = case
    cfg = _write_cfg(tmp_path, {**SPEEDS_CFG, "gprime0": gprime0, "h": h,
                                "kernel": {"family": "dirac",
                                           "shift": shift}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith(FAR_SHIFTED_SPEEDS[case])
    assert err.count("\n") == 1
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []


BASES = [KPP_CFG, LINEAR_CFG, MCKEAN_CFG, SPEEDS_CFG,
         {**LINEAR_CFG, "n": 256, "T": 0.5}]
VALUES = [None, True, "1", [], {}, -1, 0, 0.5, NAN, float("inf"),
          float("-inf"), 1e300]


def _paths(spec, prefix=""):
    for key, value in spec.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


def _names_the_field(err: str, path: str) -> bool:
    """Whether an exit-1 message names the changed path as the config
    module docstring requires: the path itself, a field inside it, the
    kernel or birth object a parameter of it belongs to, or (for an
    extreme value that overflows) the finiteness gate of a failed run."""
    parent = path.rpartition(".")[0]
    return (f"'{path}'" in err or f"'{path}." in err
            or (parent in ("kernel", "birth") and f"'{parent}'" in err)
            or err.startswith("error: solution lost finiteness near t="))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_single_bad_field_exits_cleanly(data):
    base = data.draw(st.sampled_from(BASES))
    path = data.draw(st.sampled_from(sorted(_paths(base))))
    cfg = _with(base, path, data.draw(st.sampled_from(VALUES)))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err):
        # extreme values overflow inside the solvers; the exit and its
        # message matter, not the warnings on the way
        warnings.simplefilter("ignore", RuntimeWarning)
        p = os.path.join(out, "cfg.json")
        with open(p, "w") as f:
            json.dump(cfg, f)
        status = run(p, out, quiet=True)
    assert status in (0, 1, 2)
    if status == 1:
        assert _names_the_field(err.getvalue(), path), err.getvalue()


def _snapshot_blocks(times, fields, x, stride):
    """The blocks a streamed snapshot CSV writes for these outputs: each
    (t, u) goes to a _SnapshotCSV as the solver hands it over."""
    blocks = []
    snapshots = _SnapshotCSV(x, stride, blocks.append)
    for t, u in zip(times, fields):
        snapshots(float(t), u)
    snapshots.close()
    return blocks


def _snapshot_data(n_out, width):
    """n_out >= 3 outputs of width >= 7, with values that need every digit:
    extreme and subnormal u, 0.1 + 0.2, and a time of -0.0.  Every u is
    finite: grids.Outputs refuses a non-finite snapshot before any
    collect sees it."""
    times = np.linspace(0.0, 1.0 / 3.0, n_out)
    times[0] = -0.0
    x = np.linspace(-1.5, 1.5, width) / 3.0  # needs all 17 digits
    x[width // 2] = -0.0
    fields = np.random.default_rng(3).standard_normal((n_out, width))
    fields[:, :5] = [-0.0, 1e-300, -1e-300, 1e300, -2.5e-310]
    fields[:3, 5:7] = [[5e-324, -5e-324],
                       [1.7976931348623157e308, -1.7976931348623157e308],
                       [2.2250738585072014e-308, 0.1 + 0.2]]
    return times, x, fields


@pytest.mark.parametrize("stride", [1, 3])
def test_snapshot_text_matches_row_by_row_format(tmp_path, stride):
    times, x, fields = _snapshot_data(5, 7)
    path = tmp_path / "snap.csv"
    _write_csv(str(path), "t,x,u", _snapshot_blocks(times, fields, x, stride))
    kept = [0, 1, 2, 3, 4] if stride == 1 else [0, 3, 4]  # the last is kept
    rows = [(times[i], x[j], fields[i, j]) for i in kept for j in range(7)]
    expected = "t,x,u\n" + "".join(
        ",".join(_fmt(float(v)) for v in row) + "\n" for row in rows)
    assert path.read_text() == expected


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)
# u passes the finiteness gate of grids.Outputs before it is formatted
_FINITE = st.floats(allow_nan=False, allow_infinity=False,
                    allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(_ANY_FLOAT, min_size=width, max_size=width),
    st.lists(st.tuples(_ANY_FLOAT, st.lists(_FINITE, min_size=width,
                                            max_size=width)),
             min_size=1, max_size=3))))
def test_snapshot_text_matches_per_value_format_for_any_float(data):
    x, outputs = data
    times = np.array([t for t, _ in outputs])
    fields = np.array([u for _, u in outputs])
    text = "".join(block + "\n" for block in
                   _snapshot_blocks(times, fields, np.array(x), 1))
    rows = [(t, xj, uj) for t, u in outputs for xj, uj in zip(x, u)]
    assert text == "".join(
        ",".join(_fmt(float(v)) for v in row) + "\n" for row in rows)


def test_snapshot_blocks_format_x_once_and_t_once_per_output(monkeypatch):
    n_out, width = 6, 9
    times, x, fields = _snapshot_data(n_out, width)
    calls = []

    def counting_fmt(v):
        calls.append(v)
        return _fmt(v)

    monkeypatch.setattr(cli, "_fmt", counting_fmt)
    blocks = list(_snapshot_blocks(times, fields, x, 1))
    assert len(blocks) == n_out
    assert len(calls) <= width + n_out  # not one call per written value


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_written_files_get_the_umask_mode(tmp_path, umask):
    cfg = _write_cfg(tmp_path, KPP_CFG)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run(cfg, str(out), quiet=True) == 0
    finally:
        os.umask(old)
    for name in ("kpp_report.json", "kpp_snapshots.csv"):
        assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_snapshot_write_failing_midway_leaves_no_file(tmp_path):
    times, x, fields = _snapshot_data(4, 2048)

    with pytest.raises(RuntimeError, match="snapshot source failed"):
        with _stream_csv(str(tmp_path / "snap.csv"), "t,x,u") as write:
            snapshots = _SnapshotCSV(x, 1, write)
            for t, u in zip(times, fields):  # past one buffer
                snapshots(float(t), u)
            raise RuntimeError("snapshot source failed")
    assert list(tmp_path.iterdir()) == []
