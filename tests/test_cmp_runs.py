"""The CSV line of tools/cmp_runs.py on two small files."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import cmp_runs  # noqa: E402


def test_csv_line_reads_a_move_off_zero_against_its_column(tmp_path):
    # u moves off 0 in the last row: its relative change is inf, but the
    # move is 1e-18 against the column's largest |old| of 0.5; the t
    # column only sets its own scale
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("t,u\n0,0.5\n100,0.25\n200,0\n")
    new.write_text("t,u\n0,0.5\n100,0.25000000000000006\n200,1e-18\n")
    line = cmp_runs._csv_diff(str(old), str(new))
    assert line == ("rows 4 -> 4; 2 entries differ (0 now 0), "
                    "max |old| 0.25, max |new| 0.25, max rel. change inf, "
                    "max |new - old| / column max |old| 1.11e-16")
