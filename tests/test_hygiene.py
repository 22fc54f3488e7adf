"""Source hygiene of the package: every __all__ entry exists and no module
imports a name it never uses (an ast scan, so no linter is needed)."""

import ast
import importlib
import pathlib

import pytest

import delaykpp

SRC = pathlib.Path(delaykpp.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("stem", MODULES)
def test_all_entries_resolve(stem):
    name = "delaykpp" if stem == "__init__" else f"delaykpp.{stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


# the package __init__ imports names to re-export them
@pytest.mark.parametrize("stem", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []
