"""List the statements of src/delaykpp that no run of the workloads executes.

Usage: python3 tools/linetrace.py [NAME ...]

NAME is a preset name or ``verify``; the default is every preset followed
by ``verify``.  Each name runs in this process through ``cli.run``
(quiet, its warnings silenced), writing into a temporary directory that
is removed afterwards, under a tracer (sys.settrace) that records the
lines executed in the modules of src/delaykpp and nowhere else.

For each module it then prints the function-body statements that no run
executed, one line each (line number and first source line), and a
summary line.  A statement with a body (if, for, with, try, ...) counts
as executed when a line of its header ran or any statement in its body
did; every other statement when any of its lines ran.  Module-level and
class-level statements are left out: they run at import, before tracing
starts.  So is the preset lookup, which runs before the tracer is set, so
presets.preset is listed.  The exit status is 0.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "delaykpp")
sys.path.insert(0, os.path.join(ROOT, "src"))

from delaykpp import cli, presets  # noqa: E402


def _run_traced(names) -> tuple[dict, dict]:
    """(file -> set of executed line numbers, name -> exit status) of the
    names run one after another under one tracer."""
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) \
            else None

    statuses = {}
    previous = sys.gettrace()
    for name in names:
        cfg = {"command": "verify"} if name == "verify" \
            else presets.preset(name)
        with tempfile.TemporaryDirectory() as out, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = os.path.join(out, "config.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            sys.settrace(tracer)
            try:
                statuses[name] = cli.run(path, out, quiet=True)
            finally:
                sys.settrace(previous)
    return hits, statuses


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _inner(stmt: ast.stmt):
    """The statements directly inside stmt: bodies, branches, handlers."""
    for node in ast.iter_child_nodes(stmt):
        if isinstance(node, ast.stmt):
            yield node
        elif isinstance(node, (ast.excepthandler, ast.match_case)):
            yield from (n for n in ast.iter_child_nodes(node)
                        if isinstance(n, ast.stmt))


def _statements(stmts):
    """stmts and every statement inside them, but not inside a def."""
    for stmt in stmts:
        yield stmt
        if not isinstance(stmt, _DEFS):
            yield from _statements(_inner(stmt))


def _body_statements(tree: ast.Module):
    """Every statement of every function body, docstrings left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip = ast.get_docstring(node, clean=False) is not None
            yield from _statements(node.body[skip:])


def _executed(stmt: ast.stmt, lines: set[int]) -> bool:
    """Whether a line of stmt's header (all of it for a simple
    statement) or, but for a def, any statement inside it ran."""
    inner = [] if isinstance(stmt, _DEFS) else list(_inner(stmt))
    first = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", [])])
    body = [n.lineno for n in ast.iter_child_nodes(stmt)
            if isinstance(n, ast.stmt)]
    end = min(body) - 1 if body else stmt.end_lineno
    return any(n in lines for n in range(first, end + 1)) or \
        any(_executed(n, lines) for n in inner)


def unrun(names) -> tuple[dict, dict]:
    """(module file name -> [(line number, first source line)] of the
    function-body statements no run executed, name -> exit status)."""
    hits, statuses = _run_traced(names)
    found = {}
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        lines = hits.get(path, set())
        missed = sorted({(s.lineno, text[s.lineno - 1].strip())
                         for s in _body_statements(ast.parse(source))
                         if not _executed(s, lines)})
        if missed:
            found[module] = missed
    return found, statuses


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or \
        [*presets.preset_names(), "verify"]
    found, statuses = unrun(names)
    for name, status in statuses.items():
        print(f"{name}: exit {status}")
    for module, missed in found.items():
        print(f"{module}: {len(missed)} not run")
        for lineno, text in missed:
            print(f"  {lineno:5d}  {text}")
    total = sum(len(m) for m in found.values())
    print(f"{total} function-body statements in {len(found)} modules not "
          f"run; {len(statuses)} names run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
