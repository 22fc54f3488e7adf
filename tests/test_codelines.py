"""tools/codelines.py: which lines of a module's source count as code, and
the per-module table it prints."""

import os
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import codelines  # noqa: E402


def count(source: str) -> int:
    return codelines.code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert count('''\
        """Module docstring,
        over two lines."""

        # a comment


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                # another comment

            async def g(self):
                """Coroutine docstring."""
        ''') == 3  # class A, def f, async def g


def test_code_with_a_trailing_comment_counts():
    assert count("x = 1  # one\n# none\n") == 1


def test_each_physical_line_of_a_statement_counts():
    assert count('''\
        total = sum(
            [1,
             2],
        )
        ''') == 4
    assert count("y = (1 +\n     2)\n") == 2


def test_a_string_statement_that_is_not_first_in_its_body_counts():
    assert count('''\
        x = 1
        """Not a docstring,
        over two lines."""
        ''') == 3
    assert count('''\
        def f():
            pass
            "not first"
        ''') == 3


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text('"""Doc."""\n\nx = 1\ny = 2\n')
    (tmp_path / "a.py").write_text("# only a comment\nz = 3\n")
    (tmp_path / "notes.txt").write_text("w = 4\n")
    assert codelines.main(["codelines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     2  b.py", "     3  total"]
