import math
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dacsim.engine import Trajectory
from dacsim.svgplot import INT_DIGITS, _points, _tables, render_svg

EDGE = 10.0 ** INT_DIGITS  # the tables cover 0 <= x < EDGE

coordinates = st.one_of(
    st.floats(min_value=0.0, max_value=EDGE),
    # x.xx5 written in decimal: the binary value lies just above or below the tie
    st.integers(min_value=0, max_value=10 ** (INT_DIGITS + 2)).map(lambda k: k / 100 + 0.005),
    st.sampled_from([0.0, -0.0, 0.005, 0.125, 2.675, EDGE - 0.01, EDGE - 0.005,
                     EDGE - 0.004, EDGE, math.nan, math.inf, -math.inf]),
    st.floats(),  # anything, NaN and the infinities included
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), max_size=64))
@example([])
@example([(math.nan, math.inf), (-math.inf, 0.0)])
@example([(EDGE - 0.005, 1e300), (-1e-3, 5e-324)])
def test_points_match_the_join(pairs):
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    assert _points(xs, ys) == oracles.svg_points(xs, ys)


def test_every_table_entry():
    # every integer part, each with a different fraction, in one call
    q = np.arange(int(EDGE), dtype=float)
    xs = q + (np.arange(q.size) % 100) / 100
    ys = q + 0.5
    assert _points(xs, ys) == oracles.svg_points(xs, ys)


def test_tables():
    ints, fracs = _tables()
    assert ints.dtype == fracs.dtype == np.dtype("<u8")
    assert [w.tobytes() for w in ints] == [
        (b"%d" % q).rjust(INT_DIGITS, b"\0").ljust(8, b"\0") for q in range(int(EDGE))]
    assert [w.tobytes() for w in fracs] == [
        (b"\0" * INT_DIGITS + b".%02d" % r).ljust(8, b"\0") for r in range(100)]


@pytest.mark.parametrize("rows", [1500, 1501, 2999, 3000, 28001])
def test_max_points_caps_every_polyline(rows, tmp_path):
    times = np.arange(rows) * 0.01
    x = np.column_stack((np.sin(times), np.cos(times)))
    traj = Trajectory(times=times, x=x, v=np.zeros_like(x), avg_u=x.mean(axis=1),
                      protocol="dc1")
    render_svg(tmp_path / "p.svg", traj, max_points=1500)
    lines = [el.get("points").split(" ")
             for el in ElementTree.parse(tmp_path / "p.svg").getroot().iter()
             if el.tag.endswith("polyline")]
    assert len(lines) == traj.n + 1
    # the densest even stride of the rows that the cap admits
    fit = next(len(range(0, rows, s)) for s in range(1, rows + 1)
               if len(range(0, rows, s)) <= 1500)
    assert all(len(points) == fit for points in lines)
