"""CLI contract: exit codes, file formats, determinism, dispatch."""

import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaykpp.cli import _write_csv, main, run

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
        _write_csv(str(tmp_path / "snap.csv"), "t,x,u", rows())
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


HOSTILE = [
    (KPP_CFG, "kernel", 5),
    (KPP_CFG, "u0", {"amplitude": None}, "u0.amplitude"),
    (MCKEAN_CFG, "u0", 3),
    (LINEAR_CFG, "params.m", None),
    (LINEAR_CFG, "diagnostics", [1]),
    (LINEAR_CFG, "diagnostics.z0", None),
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
    (SPEEDS_CFG, "h", -1),
    ({**MCKEAN_CFG, "experiment": "bridge"}, "h", 0.0),
    (KPP_CFG, "n", 256.7),
    # step budget: rejected before any ring or output array exists
    (KPP_CFG, "T", 1e300),
    (MCKEAN_CFG, "T", 1e300),
    (LINEAR_CFG, "T", 1e300),
    (KPP_CFG, "T", 1e9),
    # speeds and KPP runs need g'(0) * mass > 1; simulate-linear does not
    (SPEEDS_CFG, "kernel.mass", 0.4),
    (SPEEDS_CFG, "gprime0", 0.5, "kernel.mass"),
    ({**KPP_CFG, "kernel": {"family": "gaussian", "stddev": 1.0}},
     "kernel.mass", 0.0),
    (MCKEAN_CFG, "kernel.mass", 0.4),
    (EXTINCTION_CFG, "kernel.mass", 0.0),
    # transforms that overflow a float at tilt 0
    (CHAR_CFG, "kernel.stddev", 1e300, "kernel"),
    (SPEEDS_CFG, "kernel.shift", 1e300, "kernel"),
    # the speeds solve but the frame tangency of the report cannot
    ({**SPEEDS_CFG, "h": 0.0}, "kernel.shift", -1e5, "kernel"),
    ({**SPEEDS_CFG, "h": 0.0}, "kernel.shift", 1e5, "kernel"),
    # g'(0) and the kernel overflow a float in the speed polish
    ({**SPEEDS_CFG, "kernel": {"family": "dirac", "shift": 1e5}},
     "gprime0", 1e300),
    ({**SPEEDS_CFG, "kernel": {"family": "dirac", "shift": -1e5}},
     "gprime0", 1e300, "kernel"),
]


@pytest.mark.parametrize("case", HOSTILE,
                         ids=[f"{c[0]['command']}-{c[1]}={c[2]!r}"
                              for c in HOSTILE])
def test_hostile_config_names_field(tmp_path, capsys, case):
    base, path, value, *named = case
    cfg = _write_cfg(tmp_path, _with(base, path, value))
    assert run(cfg, str(tmp_path), quiet=True) == 1
    err = capsys.readouterr().err
    assert f"'{named[0] if named else path}'" in err
    assert "Traceback" not in err


BASES = [KPP_CFG, LINEAR_CFG, MCKEAN_CFG, SPEEDS_CFG,
         {**LINEAR_CFG, "n": 256, "T": 0.5}]
VALUES = [None, True, "1", [], {}, -1, 0, 0.5, NAN, float("inf"),
          float("-inf"), 1e300]


def _paths(spec, prefix=""):
    for key, value in spec.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_single_bad_field_exits_cleanly(data):
    base = data.draw(st.sampled_from(BASES))
    path = data.draw(st.sampled_from(sorted(_paths(base))))
    cfg = _with(base, path, data.draw(st.sampled_from(VALUES)))
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        # extreme values overflow inside the solvers; only the exit matters
        warnings.simplefilter("ignore", RuntimeWarning)
        p = os.path.join(out, "cfg.json")
        with open(p, "w") as f:
            json.dump(cfg, f)
        assert run(p, out, quiet=True) in (0, 1, 2)
