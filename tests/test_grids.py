"""Grid layout, field validation, the history ring's slot discipline and
the output gate."""

import re

import numpy as np
import pytest

from delaykpp import ConfigError, Grid, HistoryRing, grids
from delaykpp.grids import Outputs, step_count


def test_grid_layout():
    g = Grid(32.0, 256)
    assert g.dx == pytest.approx(0.125)
    assert g.x[0] == pytest.approx(-16.0)
    assert g.x[g.n // 2] == 0.0
    assert g.x[-1] == pytest.approx(16.0 - g.dx)
    # the half spectrum of rfft: 2 pi k / L for k = 0 .. n/2, so xi[1] is
    # the fundamental and xi[-1] the Nyquist frequency pi / dx
    assert g.xi.shape == (g.n // 2 + 1,)
    assert g.xi[0] == 0.0
    assert g.xi[1] == pytest.approx(2.0 * np.pi / 32.0)
    assert g.xi[-1] == pytest.approx(np.pi / g.dx)
    np.testing.assert_array_equal(g.xi, 2.0 * np.pi * np.fft.rfftfreq(
        g.n, d=g.dx))


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(-1.0, 256)
    with pytest.raises(ConfigError):
        Grid(10.0, 300)  # not a power of two
    with pytest.raises(ConfigError):
        Grid(10.0, 128)  # too coarse


def test_history_ring_dt_divides_delay():
    ring = HistoryRing(2.0, 8, 3)
    assert ring.dt == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        HistoryRing(1.0, 0, 3)


def test_history_ring_fill_broadcasts_one_row_and_refuses_other_shapes():
    # each array is checked against its own part of the ring, which for a
    # values-only ring is a zero-width derivative array
    row = np.array([[1.0, 2.0, 3.0]])
    for derivatives, width in ((True, 3), (False, 0)):
        ring = HistoryRing(2.0, 8, 3, derivatives=derivatives)
        ring.fill(row, np.zeros((1, width)))
        np.testing.assert_array_equal(ring.vals, np.tile(row, (9, 1)))
        assert ring.ders.shape == (9, width) and not ring.ders.any()
        with pytest.raises(ConfigError, match=r"\(2, 3\).*\(9, 3\)"):
            ring.fill(np.ones((2, 3)), np.zeros((1, width)))
        with pytest.raises(ConfigError, match=rf"\(9, 4\).*\(9, {width}\)"):
            ring.fill(np.ones((9, 3)), np.zeros((9, 4)))


def test_ring_budget_counts_the_arrays_allocated(monkeypatch):
    # one delay of value rows fits a budget that values and derivatives
    # together pass; the refusal still names the fields that size it
    monkeypatch.setattr(grids, "MAX_BYTES", 2 * 9 * 3 * 16 - 1)
    assert HistoryRing(2.0, 8, 3, derivatives=False).vals.nbytes == 9 * 3 * 16
    with pytest.raises(ConfigError, match=r"fields 'n_h' and 'n'"):
        HistoryRing(2.0, 8, 3)


def test_budget_refusal_prints_need_and_budget_apart():
    # one byte past the budget of 1 GiB: both numbers are printed whole,
    # so the need never reads as the budget
    with pytest.raises(ConfigError) as refused:
        grids._check_bytes(grids.MAX_BYTES + 1, "a run")
    need, budget = re.findall(r"\d+", str(refused.value))
    assert (int(need), int(budget)) == (grids.MAX_BYTES + 1, grids.MAX_BYTES)


def test_history_ring_slots_across_windows():
    # push several delay windows of a known signal and check the delayed
    # node is always exactly the value h earlier; a values-only ring is
    # filled and pushed with a scalar 0 derivative, as solve_kpp does
    h, n_h = 1.0, 8

    def f(t):
        return np.array([np.sin(0.7 * t)])

    def fdot(t):
        return np.array([0.7 * np.cos(0.7 * t)])

    for derivatives in (True, False):
        ring = HistoryRing(h, n_h, 1, dtype=float, derivatives=derivatives)
        dt = ring.dt
        times = -h + dt * np.arange(n_h + 1)
        ring.fill(np.stack([f(t) for t in times]),
                  np.stack([fdot(t) for t in times]) if derivatives else 0.0)
        for step in range(1, 4 * n_h + 1):
            t = step * dt
            ring.push(f(t), fdot(t) if derivatives else 0.0)
            (v_old, d_old), (v_next, _) = ring.delayed_nodes()
            assert ring.newest[0] == pytest.approx(np.sin(0.7 * t),
                                                   abs=1e-14)
            assert v_old[0] == pytest.approx(np.sin(0.7 * (t - h)),
                                             abs=1e-14)
            assert v_next[0] == pytest.approx(np.sin(0.7 * (t - h + dt)),
                                              abs=1e-14)
            if derivatives:
                assert d_old[0] == pytest.approx(fdot(t - h)[0], abs=1e-14)
            else:
                assert d_old.shape == (0,)


def test_history_ring_block_rows_match_push_and_delayed_nodes():
    # the count + 1 delayed rows of a block are the nodes delayed_nodes
    # gives its steps (views, or a copy across the wrap), and storing a
    # block of rows leaves the ring as pushing them one at a time does;
    # for a ring with derivative rows and for a values-only one
    n_h = 5
    start = np.arange(2 * (n_h + 1), dtype=complex).reshape(n_h + 1, 2)
    for derivatives in (True, False):
        blocked, pushed = (HistoryRing(1.0, n_h, 2, derivatives=derivatives)
                           for _ in range(2))
        width = blocked.ders.shape[1]  # 2, or 0 for a values-only ring
        for ring in (blocked, pushed):
            ring.fill(start, -start[:, :width])
        step, wraps = 0, []
        for count in (3, 1, 2, 4, 1, 5, 1):
            count = min(count, blocked.room)
            vals, ders = blocked.delayed_rows(count)
            wraps.append(not np.shares_memory(vals, blocked.vals))
            assert wraps[-1] == (blocked._slot(step - n_h) + count > n_h)
            assert ders.shape == (count + 1, width)
            vals, ders = vals.copy(), ders.copy()
            new_vals, new_ders = blocked.store_rows(count)
            for k in range(count):
                (v0, d0), (v1, d1) = pushed.delayed_nodes()
                assert [vals[k].tolist(), ders[k].tolist(),
                        vals[k + 1].tolist(), ders[k + 1].tolist()] == \
                    [v0.tolist(), d0.tolist(), v1.tolist(), d1.tolist()]
                row = np.full(2, 100.0 * (step + k + 1))
                new_vals[k], new_ders[k] = row, -row[:width]
                pushed.push(row, -row[:width])
            step += count
            np.testing.assert_array_equal(blocked.vals, pushed.vals)
            np.testing.assert_array_equal(blocked.ders, pushed.ders)
            assert blocked.newest.tolist() == pushed.newest.tolist()
        assert any(wraps) and not all(wraps)


def test_history_ring_midpoint_interpolation_order():
    # cubic Hermite on one cell: midpoint error scales like dt^4
    errs = []
    for n_h in (8, 16):
        ring = HistoryRing(1.0, n_h, 1, dtype=float)
        dt = ring.dt
        times = -1.0 + dt * np.arange(n_h + 1)
        ring.fill(np.stack([[np.sin(t)] for t in times]),
                  np.stack([[np.cos(t)] for t in times]))
        mid = ring.delayed_mid()
        errs.append(abs(mid[0] - np.sin(-1.0 + dt / 2.0)))
    assert errs[0] > 8.0 * errs[1]  # at least ~dt^3; Hermite gives dt^4


def test_outputs_refuse_a_non_finite_snapshot_with_the_last_healthy_time():
    out = Outputs(1.0, 0.25, 1, 4, lambda t, u: None)
    out.store(0, np.zeros(4))
    out.store(1, np.ones(4))
    with pytest.raises(RuntimeError, match=r"lost finiteness near t=0.5; "
                       r"last healthy output at t=0.25$"):
        out.store(2, np.array([0.0, np.inf, 0.0, 0.0]))


def test_trajectory_warns_once_for_every_snapshot_at_the_edge():
    grid = Grid(8.0, 256)
    times = []
    out = Outputs(0.5, 0.25, 1, grid.n, lambda t, u: times.append(t))
    for row in range(3):
        out.store(row, np.ones(grid.n))
    with pytest.warns(RuntimeWarning, match="periodic edge") as caught:
        traj = out.trajectory(4, clamp_count=2)
    assert len(caught) == 1
    assert (traj.n_h, traj.clamp_count, traj.edge_fraction) == (4, 2, 1.0)
    assert times == [0.0, 0.25, 0.5]


@pytest.mark.parametrize("dt,delay,named", [
    (1e300 / 16, "'h' = 1e+300 and 'n_h' = 16",
     "fields 'T' = 2, 'h' = 1e.300 and 'n_h' = 16 need 3.2e-299 steps of "
     "dt = h/n_h"),
    (1e300, None, "field 'T' = 2 needs 2e-300 steps of dt")])
def test_step_count_refuses_a_horizon_that_takes_no_step(dt, delay, named):
    # T/dt below 1e-12 would keep only t = 0 of a run reported as T = 2
    with pytest.raises(ConfigError, match=named):
        step_count(2.0, dt, delay)
    assert step_count(0.0, dt, delay) == 0
    assert step_count(1e-10, 1.0 / 16, delay) == 1
