import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from dacsim.svgplot import INT_DIGITS, _points, _tables

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
