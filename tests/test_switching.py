import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim.graphs import build_digraph, is_strongly_connected, topology_preset
from dacsim.switching import (
    SwitchingSchedule,
    graph_at,
    schedule_from_json,
    schedule_to_json,
    union_digraph,
    validate_admissible,
)
from conftest import case1_schedule, case2_schedule, random_digraph


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

    def test_unbounded_tail_and_declared_end(self):
        open_ended = three_segment_schedule()
        assert graph_at(open_ended, 1e6) == 2
        closed = three_segment_schedule(end_time=6.0)
        with pytest.raises(ValueError, match="beyond"):
            graph_at(closed, 6.0)

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


class TestUnionDigraph:
    def test_weak_presets_union_is_connected(self):
        u = union_digraph([topology_preset("fig1b"), topology_preset("fig1c")])
        assert len(u.edge_list()) == 8
        assert is_strongly_connected(u)

    def test_idempotent(self):
        g = topology_preset("fig1e")
        assert np.array_equal(union_digraph([g, g]).weights, g.weights)

    def test_empty_graph_is_identity(self):
        g = topology_preset("fig1b")
        empty = build_digraph(6, [])
        assert np.array_equal(union_digraph([g, empty]).weights, g.weights)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError):
            union_digraph([build_digraph(2, []), build_digraph(3, [])])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_union_algebra(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a, b, c = (random_digraph(rng, n) for _ in range(3))
        ab = union_digraph([a, b])
        ba = union_digraph([b, a])
        assert np.array_equal(ab.weights, ba.weights)
        left = union_digraph([union_digraph([a, b]), c])
        right = union_digraph([a, union_digraph([b, c])])
        assert np.array_equal(left.weights, right.weights)
        again = union_digraph([ab, b])
        assert set(map(tuple, ab.edge_list())) == set(map(tuple, again.edge_list()))


class TestAdmissibility:
    def test_case1_schedule_admissible(self):
        report = validate_admissible(case1_schedule(), horizon=40.0)
        assert report.admissible and report.all_balanced and report.dwell_ok
        assert report.recurrent

    def test_case1_every_period_window_jointly_connected(self):
        sched = case1_schedule()
        for k in range(5):
            window = [sched.graphs[graph_at(sched, t)] for t in np.arange(8 * k, 8 * (k + 1), 2.0)]
            assert is_strongly_connected(union_digraph(window))

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


class TestScheduleValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            SwitchingSchedule(graphs=(topology_preset("fig1a"),), segments=((1.0, 0),))

    def test_increasing_starts(self):
        g = topology_preset("fig1a")
        with pytest.raises(ValueError, match="increasing"):
            SwitchingSchedule(graphs=(g,), segments=((0.0, 0), (0.0, 0)))

    def test_dwell_must_fit_segments(self):
        g = topology_preset("fig1a")
        with pytest.raises(ValueError, match="dwell_min"):
            SwitchingSchedule(graphs=(g,), segments=((0.0, 0), (1.0, 0)), dwell_min=2.0)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError, match="node count"):
            SwitchingSchedule(graphs=(topology_preset("fig1a"), build_digraph(2, [])),
                              segments=((0.0, 0), (2.0, 1)))

    def test_json_round_trip(self):
        sched = case2_schedule()
        again = schedule_from_json(schedule_to_json(sched))
        assert again.segments == sched.segments
        assert again.period == sched.period
        for g1, g2 in zip(again.graphs, sched.graphs):
            assert np.array_equal(g1.weights, g2.weights)
