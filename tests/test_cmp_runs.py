"""tools/cmp_runs.py: its CSV line on two small files, and its per-name
lines on a run of one tree against itself, for presets and for a config
file."""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

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


def test_each_name_prints_its_times_and_peak_rss(tmp_path, capsys):
    # each name runs in a child of its own, so each reads its own VmHWM
    src = os.path.join(ROOT, "src")
    names = ["char-desk", "speeds-dirac"]
    assert cmp_runs.main([src, src, *names, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    pattern = (r"(\S+): exit 0 -> 0, identical; "
               r"cli\.run \d+\.\d\d s -> \d+\.\d\d s, "
               r"peak (\d+\.\d) MB -> (\d+\.\d) MB")
    matches = [re.fullmatch(pattern, line) for line in lines]
    assert all(matches), lines
    assert [m.group(1) for m in matches] == names
    assert all(float(p) > 0.0 for m in matches for p in m.groups()[1:])
    assert sorted(os.listdir(tmp_path / "old")) == sorted(
        [*names, *(n + ".config.json" for n in names)])


def test_a_config_path_runs_under_its_stem(tmp_path, capsys):
    # a NAME that is an existing .json file runs that config, so a path no
    # preset takes (here an undelayed linear run) can be compared too
    cfg = {"command": "simulate-linear",
           "params": {"m": 0.2, "p": -1.2, "h": 0.0},
           "kernel": {"family": "gaussian", "stddev": 1.0},
           "L": 64.0, "n": 256, "T": 1.0}
    path = tmp_path / "h0-linear.json"
    path.write_text(json.dumps(cfg))
    src = os.path.join(ROOT, "src")
    out = tmp_path / "out"
    assert cmp_runs.main([src, src, str(path), "--out", str(out)]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("h0-linear: exit 0 -> 0, identical; ")
    for side in ("old", "new"):
        assert json.loads((out / side / "h0-linear.config.json")
                          .read_text()) == cfg
        assert "linear_snapshots.csv" in os.listdir(out / side / "h0-linear")


def test_repeat_alternates_the_trees_and_counts_the_new_wins(
        tmp_path, capsys, monkeypatch):
    # a stand-in child: it records the order of the runs, writes the same
    # file on both sides and reads the new tree faster in rounds 1 and 3
    calls = []

    def fake_run(src, name, out):
        calls.append(src)
        os.makedirs(os.path.join(out, name))
        with open(os.path.join(out, name, "r.json"), "w") as f:
            f.write("{}")
        r = len(calls) // 2 + len(calls) % 2  # the round of this run
        seconds = {("old", 1): 2.0, ("new", 1): 1.0, ("old", 2): 1.0,
                   ("new", 2): 3.0, ("old", 3): 4.0, ("new", 3): 1.5}
        return {"status": 0, "seconds": seconds[src, r],
                "peak_mb": 10.0 if src == "old" else 9.0}

    monkeypatch.setattr(cmp_runs, "_run_name", fake_run)
    out = tmp_path / "out"
    assert cmp_runs.main(["old", "new", "char-desk", "--repeat", "3",
                          "--out", str(out)]) == 0
    assert calls == ["old", "new", "new", "old", "old", "new"]
    line, = capsys.readouterr().out.splitlines()
    assert line == ("char-desk: exit 0 -> 0, identical; cli.run 2.00 s -> "
                    "1.50 s, peak 10.0 MB -> 9.0 MB; medians of 3 rounds, "
                    "new faster in 2")
    # only the first round's files are kept
    assert sorted(os.listdir(out)) == ["new", "old"]
    assert os.listdir(out / "old") == ["char-desk"]
