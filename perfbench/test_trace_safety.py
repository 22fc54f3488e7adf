"""The tracer must not change what delaykpp writes and must undo itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import filecmp
import json
import os
import sys

import numpy
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import delaykpp.cli as cli  # noqa: E402
from delaykpp import linear_solver, nonlinear  # noqa: E402
from layertrace import (COMPUTED_COUNTS, PER_LAYER, Tracer,  # noqa: E402
                        per_layer)

GAUSS = {"family": "gaussian", "mean": 0.0, "stddev": 1.0, "mass": 1.0}
NICHOLSON = {"family": "nicholson", "p": 2.0, "a": 1.0}
CONFIGS = {
    "linear": {"command": "simulate-linear", "kernel": GAUSS,
               "params": {"m": 0.4, "p": -0.8, "h": 1.0}, "L": 64.0,
               "n": 256, "T": 1.0, "out_every": 8, "snapshot_stride": 4},
    "kpp": {"command": "simulate-kpp", "kernel": GAUSS, "birth": NICHOLSON,
            "L": 64.0, "n": 256, "h": 1.0, "n_h": 16, "T": 3.0,
            "snapshot_stride": 8},
    "extinction": {"command": "experiment", "experiment": "extinction",
                   "kernel": GAUSS, "birth": NICHOLSON, "h": 1.0, "n_h": 16,
                   "L": 128.0, "n": 512, "T": 2.0, "tune": True,
                   "tune_margin": 0.5},
    "mckean-dirac": {"command": "experiment", "experiment": "mckean",
                     "kernel": {"family": "dirac", "shift": 0.0, "mass": 1.0},
                     "birth": NICHOLSON, "h": 1.0, "n_h": 16, "L": 64.0,
                     "n": 256, "T": 2.0},
}


def _run(cfg, out_dir, tracer=None):
    os.makedirs(out_dir)
    path = os.path.join(os.path.dirname(out_dir), "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    if tracer is None:
        return cli.run(path, out_dir, quiet=True)
    with tracer:
        return cli.run(path, out_dir, quiet=True)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_outputs_identical_and_names_restored(tmp_path, name):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in Tracer().targets()]
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    status = _run(CONFIGS[name], plain)
    tracer = Tracer()
    assert _run(CONFIGS[name], traced, tracer) == status

    files = sorted(os.listdir(plain))
    assert files and sorted(os.listdir(traced)) == files
    for f in files:
        assert filecmp.cmp(os.path.join(plain, f), os.path.join(traced, f),
                           shallow=False), f
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert linear_solver.np is numpy and nonlinear.np is numpy
    assert tracer.spans and tracer.spans[0][0] == "cli.run"


def test_missing_target_is_listed_not_fatal():
    class Renamed(Tracer):
        def targets(self):
            return super().targets() + [(cli, "no_such_name", "cli.x", None)]

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in Tracer().targets()]
    tracer = Renamed()
    with tracer:
        assert cli.run.__wrapped__ is originals[0][2]
    assert tracer.missing == ["delaykpp.cli.no_such_name"]
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_computed_counts_repeat(tmp_path):
    layers = []
    for k in range(2):
        tracer = Tracer()
        _run(CONFIGS["extinction"], str(tmp_path / f"run{k}"), tracer)
        layers.append(per_layer(tracer.spans, tracer.counts))
    counts = [{c: m[c] for c in COMPUTED_COUNTS} for m in layers]
    assert counts[0] == counts[1]
    assert counts[0]["nonlinear.conv_kernel.mac"] > 0
    assert counts[0]["nonlinear.conv_etd.mac"] > 0


def test_dirac_kernel_bypasses_the_kernel_convolution(tmp_path):
    tracer = Tracer()
    _run(CONFIGS["mckean-dirac"], str(tmp_path / "run"), tracer)
    m = per_layer(tracer.spans, tracer.counts)
    assert m["nonlinear.conv_kernel.calls"] == 0
    assert m["nonlinear.conv_etd.calls"] == 3 * m["nonlinear.steps"]


def test_benchmark_json_lists_the_reported_metrics():
    from run import END_TO_END, TRACE_METRICS

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, u) for n, u, _ in PER_LAYER] + list(TRACE_METRICS)
