"""Source hygiene of the package: every __all__ entry exists, no module
(nor tests/oracles.py) imports a name it never uses (an ast scan, so no
linter is needed), the test oracles are not exported, importing the
CLI loads no SciPy module, the config docstring's lists of who reads
each field are the table that cli.run checks, the experiments take
typed values whose option names are the one table of experiment
options, from which that table takes its experiment-only readers, the
solver parameters that perfbench/layertrace.py reads by position stay
in place, and both solvers require a collect."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import delaykpp
from delaykpp import cli
from delaykpp.config import EXPERIMENT_OPTIONS, FIELD_READERS
from delaykpp.presets import preset, preset_names

SRC = pathlib.Path(delaykpp.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# the package __init__ imports names to re-export them
SOURCES = [SRC / f"{m}.py" for m in MODULES if m != "__init__"] + \
    [pathlib.Path(__file__).with_name("oracles.py")]
# the reference implementations in tests/oracles.py, which no run calls
ORACLES = ["Kept", "scalar_dde_solve", "stepwise_delay_diag",
           "solve_linear_fd", "comparison_run", "ComparisonReport",
           "subtangential_defect", "local_tail_ratio", "local_expansion",
           "gamma_h_eval", "stored_trace_levels", "stored_cone_minima",
           "verdict_stability"]


@pytest.mark.parametrize("stem", MODULES)
def test_all_entries_resolve(stem):
    name = "delaykpp" if stem == "__init__" else f"delaykpp.{stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_package_exports_no_test_oracles():
    exported = {n for m in MODULES if m != "__init__" for n in getattr(
        importlib.import_module(f"delaykpp.{m}"), "__all__", ())}
    assert [n for n in ORACLES
            if hasattr(delaykpp, n) or n in exported] == []
    assert not hasattr(delaykpp.DiscreteKernel, "multiplier")


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, since this one has SciPy loaded by other tests;
    # only verify's quadrature oracle imports SciPy, when it runs
    code = ("import sys, delaykpp.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def _bracket_readers() -> dict:
    """field -> readers, from the bracket list of each entry of the
    config docstring's field reference (the first bracket whose items
    are all reader names, so "[-L/2, L/2)" and "[0.5, 0.1, 0.02]" are
    passed over)."""
    names = {r for readers in FIELD_READERS.values() for r in readers}
    exp = ["mckean", "extinction", "spreading", "bridge"]
    words = {"all": sorted(names), "exp": exp,
             "all but verify": sorted(names - {"verify"})}
    doc = delaykpp.config.__doc__.split("Field reference.")[1]
    entries = re.split(r"^``(\w+)``", doc, flags=re.M)[1:]
    found = {}
    for field, text in zip(entries[::2], entries[1::2]):
        for group in re.findall(r"\[([^\[\]]*)\]", text):
            items = group.split(", ")
            if all(i in names or i in words for i in items):
                found[field] = sorted({r for i in items
                                       for r in words.get(i, [i])})
                break
    return found


def test_config_docstring_brackets_match_the_field_readers():
    assert _bracket_readers() == {k: sorted(set(v))
                                  for k, v in FIELD_READERS.items()}


def test_every_preset_field_is_read_by_its_run():
    for name in preset_names():
        cfg = preset(name)
        reader = cfg.get("experiment", cfg["command"])
        assert [k for k in cfg if reader not in FIELD_READERS[k]] == [], name


def test_experiments_never_see_the_config():
    # the CLI reads every field; an experiment takes typed values only
    text = (SRC / "experiments.py").read_text()
    assert re.findall(r"\bFields\b|\bkpp_inputs\b|\bconfig\[", text) == []


def test_experiment_options_are_the_runner_parameters():
    for name, runner in cli._experiments().items():
        params = list(inspect.signature(runner).parameters)[1:]
        assert params == list(EXPERIMENT_OPTIONS.get(name, {})), name


def test_experiment_options_are_the_experiment_only_readers():
    # a field that one experiment reads and another does not is one of
    # its options, in FIELD_READERS and in the docstring's brackets alike
    exps = list(cli._experiments())
    assert set(EXPERIMENT_OPTIONS) <= set(exps)
    for readers in (FIELD_READERS, _bracket_readers()):
        for name in exps:
            own = [k for k, r in readers.items()
                   if name in r and not set(exps) <= set(r)]
            assert own == list(EXPERIMENT_OPTIONS.get(name, {})), name


def test_tracer_positional_reads_keep_their_places():
    # perfbench/layertrace.py reads solve_linear's n_h as args[5] and
    # _rk4_delay_diag's mu, ring and n_steps as args[0], [2] and [3]; a
    # moved parameter would zero a per-layer reading without an error
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(delaykpp.linear_solver.solve_linear)[5] == "n_h"
    assert names(delaykpp.linear_solver._rk4_delay_diag) == [
        "mu", "kap", "ring", "n_steps", "collect"]


@pytest.mark.parametrize("solve", [delaykpp.solve_linear, delaykpp.solve_kpp],
                         ids=lambda f: f.__name__)
def test_solvers_take_a_required_keyword_only_collect(solve):
    # every kept snapshot goes to collect: there is no run without one
    collect = inspect.signature(solve).parameters["collect"]
    assert collect.kind is inspect.Parameter.KEYWORD_ONLY
    assert collect.default is inspect.Parameter.empty
    with pytest.raises(TypeError, match="collect"):
        solve(*[None] * 6)
