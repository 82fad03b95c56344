import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim import switching
from dacsim.graphs import WeightedDigraph, build_digraph, is_strongly_connected, topology_preset
from dacsim.switching import (
    SwitchingSchedule,
    graph_at,
    schedule_from_json,
    validate_admissible,
)
from conftest import (case1_schedule, case2_schedule, drawn_digraphs, random_digraph,
                      scipy_strongly_connected)


def three_segment_schedule(**kw):
    graphs = (topology_preset("fig1b"), topology_preset("fig1c"), topology_preset("fig1d"))
    return SwitchingSchedule(graphs=graphs, segments=((0.0, 0), (2.0, 1), (4.0, 2)), **kw)


class TestGraphAt:
    def test_interval_membership(self):
        sched = three_segment_schedule()
        assert graph_at(sched, 3.0) == 1

    def test_right_continuous_at_switch(self):
        sched = three_segment_schedule()
        assert graph_at(sched, 2.0) == 1
        assert graph_at(sched, 4.0) == 2

    def test_cyclic_wrap(self):
        sched = case1_schedule()   # period 8
        assert graph_at(sched, 11.0) == graph_at(sched, 3.0)
        assert graph_at(sched, 8.0) == graph_at(sched, 0.0)

    def test_pieces_of_a_period_inexact_in_binary(self):
        graphs = (topology_preset("fig1b"), topology_preset("fig1c"), topology_preset("fig1d"))
        sched = SwitchingSchedule(graphs=graphs, segments=((0.0, 0), (0.1, 1), (0.2, 2)),
                                  period=0.3)
        pieces = sched.segments_in(1.2)
        assert [idx for _, _, idx in pieces] == [0, 1, 2] * 4
        start, _, idx = pieces[9]  # 3 * 0.3 rounds to 0.8999999999999999
        assert start < 0.9 and idx == 0

    def test_unbounded_tail(self):
        assert graph_at(three_segment_schedule(), 1e6) == 2

    def test_negative_time(self):
        with pytest.raises(ValueError):
            graph_at(three_segment_schedule(), -1.0)

    def test_no_chattering(self):
        sched = case1_schedule()
        grid = np.arange(0.0, 40.0, 0.01)
        indices = np.array([graph_at(sched, float(t)) for t in grid])
        changes = int(np.sum(indices[1:] != indices[:-1]))
        assert changes == 19                       # one per boundary in (0, 40)
        assert changes <= 40.0 / sched.dwell_min


def cyclic(graphs, starts, indices, period):
    return SwitchingSchedule(graphs=graphs, segments=tuple(zip(starts, indices)), period=period)


class TestUnionDigraph:
    """validate_admissible joins the digraphs of a window, and of a period,
    by their edge patterns."""

    def test_weak_presets_union_is_connected(self):
        # neither fig1b nor fig1c is strongly connected; their union is
        graphs = (topology_preset("fig1b"), topology_preset("fig1c"))
        report = validate_admissible(cyclic(graphs, (0.0, 1.0), (0, 1), 2.0), horizon=6.0)
        assert report.recurrent and report.admissible
        assert report.joint_connectivity_intervals == ((0.0, 2.0), (2.0, 4.0), (4.0, 6.0))

    def test_idempotent(self):
        # a digraph that recurs within a window adds nothing to it
        graphs = (topology_preset("fig1b"), topology_preset("fig1c"))
        twice = validate_admissible(cyclic(graphs, (0.0, 1.0, 2.0), (0, 0, 1), 3.0), horizon=9.0)
        once = validate_admissible(cyclic(graphs, (0.0, 2.0), (0, 1), 3.0), horizon=9.0)
        assert twice.joint_connectivity_intervals == once.joint_connectivity_intervals
        assert twice.recurrent and once.recurrent

    def test_empty_graph_is_identity(self):
        # an edgeless digraph adds nothing to a window
        graphs = (topology_preset("fig1b"), topology_preset("fig1c"), build_digraph(6, []))
        padded = validate_admissible(cyclic(graphs, (0.0, 1.0, 2.0), (0, 2, 1), 3.0), horizon=9.0)
        plain = validate_admissible(cyclic(graphs, (0.0, 2.0), (0, 1), 3.0), horizon=9.0)
        assert padded.joint_connectivity_intervals == plain.joint_connectivity_intervals
        assert padded.recurrent and padded.admissible

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_union_algebra(self, seed):
        # the union is commutative and associative: the period verdict does
        # not depend on the order of the digraphs, and a window over one
        # period closes exactly when the whole period's union connects
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        graphs = tuple(random_digraph(rng, n) for _ in range(3))
        verdicts = set()
        for order in itertools.permutations(range(3)):
            report = validate_admissible(cyclic(graphs, (0.0, 1.0, 2.0), order, 3.0), horizon=3.0)
            assert bool(report.joint_connectivity_intervals) == report.recurrent
            verdicts.add(report.recurrent)
        assert len(verdicts) == 1


class TestScanCost:
    def test_each_union_is_tested_once(self, monkeypatch):
        """A dense cyclic schedule repeats a few unions over many pieces: the
        strong-connectivity tests do not grow with the horizon."""
        sched = cyclic(case1_schedule().graphs, (0.0, 0.01, 0.02, 0.03), (0, 1, 2, 3), 0.04)
        test = switching.pattern_is_strongly_connected
        calls = []
        monkeypatch.setattr(switching, "pattern_is_strongly_connected",
                            lambda pattern: calls.append(1) or test(pattern))
        counts = []
        for horizon in (40.0, 400.0):
            calls.clear()
            report = validate_admissible(sched, horizon)
            counts.append(len(calls))
            assert report.admissible
            # fig1b | fig1c and fig1d | fig1e each connect: two windows a period
            assert len(report.joint_connectivity_intervals) == round(horizon / 0.02)
        assert counts[0] == counts[1]


class TestAdmissibility:
    def test_case1_schedule_admissible(self):
        sched = case1_schedule()
        report = validate_admissible(sched, horizon=40.0)
        assert report.admissible and report.all_balanced and report.recurrent
        assert sched.dwell_min == 2.0

    def test_case1_every_period_window_jointly_connected(self):
        sched = case1_schedule()
        for k in range(5):
            window = [sched.graphs[graph_at(sched, t)] for t in np.arange(8 * k, 8 * (k + 1), 2.0)]
            assert is_strongly_connected(WeightedDigraph(6, sum(g.weights for g in window)))

    def test_constant_weak_graph_never_connects(self):
        sched = SwitchingSchedule(graphs=(topology_preset("fig1b"),),
                                  segments=((0.0, 0),), period=None)
        report = validate_admissible(sched, horizon=20.0)
        assert not report.admissible
        assert not report.recurrent
        assert report.joint_connectivity_intervals == ()

    def test_unbalanced_member_flagged(self):
        lopsided = build_digraph(6, [(1, 2, 1.0)])
        sched = SwitchingSchedule(graphs=(topology_preset("fig1a"), lopsided),
                                  segments=((0.0, 0), (2.0, 1)), period=4.0)
        report = validate_admissible(sched, horizon=16.0)
        assert not report.all_balanced
        assert not report.admissible

    def test_case2_constant_tail_treated_as_admissible(self):
        report = validate_admissible(case2_schedule(), horizon=40.0)
        assert report.admissible
        assert any("constant" in note for note in report.notes)

    def test_greedy_windows_partition_prefix(self):
        report = validate_admissible(case1_schedule(), horizon=40.0)
        intervals = report.joint_connectivity_intervals
        assert intervals[0][0] == 0.0
        for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
            assert b0 == a1 and b1 > a1
        assert len(intervals) >= 40.0 / 8.0  # grows linearly for cyclic schedules


@st.composite
def drawn_schedules(draw):
    """A schedule of 1..5 drawn digraphs, cyclic or not, with whole-number
    segment lengths, and a horizon."""
    graphs = draw(drawn_digraphs(max_graphs=5))
    pieces = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, len(graphs) - 1)),
                           min_size=1, max_size=8))
    starts = np.cumsum([0.0] + [float(d) for d, _ in pieces[:-1]])
    period = float(sum(d for d, _ in pieces)) if draw(st.booleans()) else None
    sched = SwitchingSchedule(graphs=graphs, period=period,
                              segments=tuple(zip(starts, (i for _, i in pieces))))
    return sched, float(draw(st.integers(1, 30)))


@settings(max_examples=150, deadline=None)
@given(drawn_schedules())
def test_joint_connectivity_against_scipy_components(drawn):
    # the greedy windows, each closed by scipy's verdict on the summed
    # weights of its pieces, and for a cyclic schedule the period's union
    sched, horizon = drawn
    report = validate_admissible(sched, horizon)
    expected, acc, start = [], None, 0.0
    for _, end, idx in sched.segments_in(horizon):
        w = sched.graphs[idx].weights
        acc = w if acc is None else acc + w
        if scipy_strongly_connected(acc):
            expected.append((start, end))
            start, acc = end, None
    assert report.joint_connectivity_intervals == tuple(expected)
    if sched.period is not None:
        union = sum(sched.graphs[i].weights for i in {i for _, i in sched.segments})
        assert report.recurrent == scipy_strongly_connected(union)


class TestScheduleValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            SwitchingSchedule(graphs=(topology_preset("fig1a"),), segments=((1.0, 0),))

    def test_increasing_starts(self):
        g = topology_preset("fig1a")
        with pytest.raises(ValueError, match="increasing"):
            SwitchingSchedule(graphs=(g,), segments=((0.0, 0), (0.0, 0)))

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError, match="node count"):
            SwitchingSchedule(graphs=(topology_preset("fig1a"), build_digraph(2, [])),
                              segments=((0.0, 0), (2.0, 1)))

    def test_json_round_trip(self):
        sched = case2_schedule()
        again = schedule_from_json({
            "graphs": [{"preset": name} for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e")],
            "segments": [[t, i] for t, i in sched.segments],
            "repeat": "none"})
        assert again.segments == sched.segments
        assert again.period == sched.period
        for g1, g2 in zip(again.graphs, sched.graphs):
            assert np.array_equal(g1.weights, g2.weights)
