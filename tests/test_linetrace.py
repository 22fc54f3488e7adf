"""tools/linetrace.py: the function-body statements no traced run executes."""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import linetrace  # noqa: E402


def _function(module: str, name: str) -> ast.FunctionDef:
    with open(os.path.join(linetrace.PACKAGE, module)) as f:
        tree = ast.parse(f.read())
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)


def test_speeds_run_lists_the_kpp_step_loop_and_not_the_speed_solve():
    found, statuses = linetrace.unrun(["speeds-dirac"])
    assert statuses == {"speeds-dirac": 0}
    step_loop = next(n for n in ast.walk(_function("nonlinear.py",
                                                   "solve_kpp"))
                     if isinstance(n, ast.For)
                     and ast.unparse(n.iter) == "range(out.n_steps)")
    assert step_loop.lineno in {line for line, _ in found["nonlinear.py"]}
    speeds = _function("characteristic.py", "critical_speeds")
    missed = {line for line, _ in found["characteristic.py"]}
    assert not {stmt.lineno for stmt in speeds.body} & missed
    # inside it, only the refusal of a stalled polish is not reached
    stall = next(n for n in ast.walk(speeds) if isinstance(n, ast.If)
                 and "1e-10" in ast.unparse(n.test))
    assert {n.lineno for n in ast.walk(speeds)
            if isinstance(n, ast.stmt)} & missed == {
        n.lineno for stmt in stall.body for n in ast.walk(stmt)
        if isinstance(n, ast.stmt)}


def test_main_prints_a_summary(capsys):
    assert linetrace.main(["speeds-dirac"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "speeds-dirac: exit 0"
    assert out[-1].endswith("not run; 1 names run")
