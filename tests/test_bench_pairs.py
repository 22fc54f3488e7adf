"""Verdicts of tools/bench_pairs.py on synthetic and recorded pairs."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import bench_pairs  # noqa: E402

BOUNDS = {"setup_s": 0.25, "run_s": 0.24, "wall_s": 0.24,
          "peak_rss_mb": 0.05}


def _pairs(parent, change, failed=(0, 0)):
    """One workload, every metric reading the given values per pair; the
    parent's and the change's first run record the given failed counts."""
    return [{"w": {side: {"metrics": dict.fromkeys(BOUNDS, value),
                          "failed": f if k == 0 else 0}
                   for side, value, f in (("parent", a, failed[0]),
                                          ("change", b, failed[1]))}}
            for k, (a, b) in enumerate(zip(parent, change))]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


@pytest.mark.parametrize("change,wins,want", [
    # wins every pair by far more than the parent's spread
    ([v / 2 for v in PARENT], 10, "gain"),
    # 9 of 10 is enough
    ([v / 2 for v in PARENT[:9]] + [11.0], 9, "gain"),
    # 8 of 10 is not
    ([v / 2 for v in PARENT[:8]] + [11.0, 11.0], 8, "within bound"),
    # wins every pair, but by less than the parent's IQR (0.2 here)
    ([v - 0.05 for v in PARENT], 10, "within bound"),
    # 10% slower: inside the 0.24 bound of run_s, outside peak_rss_mb's 0.05
    ([1.1 * v for v in PARENT], 0, "within bound"),
    ([1.3 * v for v in PARENT], 0, "worse"),
])
def test_verdicts(change, wins, want):
    summary = bench_pairs.summarize(_pairs(PARENT, change), ["w"], BOUNDS)
    run = summary["w"]["run_s"]
    assert run["change_wins"] == wins
    assert run["verdict"] == want
    table = bench_pairs.table(summary)
    assert len(table.splitlines()) == 1 + len(BOUNDS)
    assert want in table


def test_memory_bound_is_its_own():
    summary = bench_pairs.summarize(
        _pairs(PARENT, [1.1 * v for v in PARENT]), ["w"], BOUNDS)
    assert summary["w"]["peak_rss_mb"]["verdict"] == "worse"
    assert summary["w"]["run_s"]["verdict"] == "within bound"


# the parent's IQR is 4.0 on a median of 10, above run_s's 0.24 bound
WIDE = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]


def test_wide_parent_spread_is_unresolved():
    summary = bench_pairs.summarize(
        _pairs(WIDE, [1.2 * v for v in WIDE]), ["w"], BOUNDS)
    assert summary["w"]["run_s"]["verdict"] == "unresolved"
    # 9 of 10 wins past the IQR still leave overlapping runs
    summary = bench_pairs.summarize(
        _pairs(WIDE, [v / 3 for v in WIDE[:9]] + [20.0]), ["w"], BOUNDS)
    assert summary["w"]["run_s"]["change_wins"] == 9
    assert summary["w"]["run_s"]["verdict"] == "unresolved"


def test_wide_parent_spread_resolves_when_every_run_beats_the_parent():
    summary = bench_pairs.summarize(
        _pairs(WIDE, [1.0 + v / 10 for v in WIDE]), ["w"], BOUNDS)
    assert summary["w"]["run_s"]["verdict"] == "gain"


def test_no_gain_with_more_failed_runs():
    change = [v / 2 for v in PARENT]
    summary = bench_pairs.summarize(_pairs(PARENT, change, failed=(0, 1)),
                                    ["w"], BOUNDS)
    assert summary["w"]["run_s"]["failed"] == {"parent": 0, "change": 1}
    assert summary["w"]["run_s"]["verdict"] == "within bound"
    summary = bench_pairs.summarize(_pairs(PARENT, change, failed=(1, 1)),
                                    ["w"], BOUNDS)
    assert summary["w"]["run_s"]["verdict"] == "gain"


def _recorded(name):
    """The summary of a committed BENCH_*.json's pairs, recomputed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, name)) as f:
        pairs = json.load(f)["pairs"]
    return bench_pairs.summarize(pairs, sorted(pairs[0]), BOUNDS)


def test_negligible_move_past_a_tiny_spread_is_no_gain():
    # peak RSS 289.2 -> 289.1 MB and 61.47 -> 61.42 MB, each past a parent
    # IQR of 0.02 MB, but far below 1% of the median
    summary = _recorded("BENCH_11.json")
    for w in ("linear-xval", "kpp-dirac"):
        entry = summary[w]["peak_rss_mb"]
        assert entry["change_wins"] >= 9
        assert entry["parent"]["median"] - entry["change"]["median"] \
            > entry["parent_iqr"]
        assert entry["verdict"] == "within bound"
    # a halved run time still reads gain
    assert _recorded("BENCH_10.json")["linear-xval"]["run_s"]["verdict"] \
        == "gain"

