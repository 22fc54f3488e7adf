"""Source hygiene of the package: every __all__ entry exists, no module
(nor tests/oracles.py) imports a name it never uses (an ast scan, so no
linter is needed), the test oracles are not exported, and importing the
CLI loads no SciPy module."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import delaykpp

SRC = pathlib.Path(delaykpp.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# the package __init__ imports names to re-export them
SOURCES = [SRC / f"{m}.py" for m in MODULES if m != "__init__"] + \
    [pathlib.Path(__file__).with_name("oracles.py")]
# the reference implementations in tests/oracles.py, which no run calls
ORACLES = ["scalar_dde_solve", "stepwise_delay_diag", "solve_linear_fd", "comparison_run",
           "ComparisonReport", "subtangential_defect", "local_tail_ratio",
           "local_expansion", "gamma_h_eval", "stored_trace_levels",
           "stored_cone_minima", "verdict_stability"]


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
