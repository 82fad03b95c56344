"""Piecewise-constant, right-continuous topology schedules and their
admissibility checks.

A schedule is admissible when every active digraph is weight-balanced, a
positive dwell time separates the switches, and joint strong connectivity
recurs: the horizon can be partitioned into bounded windows over each of
which the union of the active digraphs is strongly connected, with those
windows never running out.  Recurrence is an asymptotic property, so on a
finite horizon it is certified structurally: a cyclic schedule qualifies if
one full period is jointly strongly connected, and a non-repeating schedule
whose final digraph is itself strongly connected qualifies through its
constant tail.  Anything else is flagged "finite horizon only".
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import (as_int, graph_from_json, is_strongly_connected, is_weight_balanced,
                     pattern_is_strongly_connected)

__all__ = [
    "SwitchingSchedule",
    "AdmissibilityReport",
    "graph_at",
    "validate_admissible",
    "schedule_from_json",
]


@dataclass
class SwitchingSchedule:
    """Ordered topology segments: ``segments[k] = (start_time, graph_index)``
    with the first start at 0.  ``period`` makes the schedule cyclic; without
    it the final segment holds indefinitely (or until ``end_time`` when the
    caller declares a bounded domain).  ``dwell_min`` defaults to the
    shortest segment, and is infinite for a schedule that never switches.
    """

    graphs: tuple
    segments: tuple
    period: Optional[float] = None
    dwell_min: Optional[float] = None
    end_time: Optional[float] = None
    _starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.graphs = tuple(self.graphs)
        self.segments = tuple((float(t), as_int(i, "a segment's digraph index"))
                              for t, i in self.segments)
        if not self.graphs:
            raise ValueError("schedule needs at least one digraph")
        if not self.segments or self.segments[0][0] != 0.0:
            raise ValueError("segments must start at time 0")
        n0 = self.graphs[0].n
        if any(g.n != n0 for g in self.graphs):
            raise ValueError("all scheduled digraphs must share the node count")
        starts = [t for t, _ in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        for _, idx in self.segments:
            if not 0 <= idx < len(self.graphs):
                raise ValueError(f"segment references unknown graph index {idx}")
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        if self.period is not None:
            if self.period <= starts[-1]:
                raise ValueError("cyclic period must exceed the last segment start")
            gaps.append(self.period - starts[-1])
        inferred = min(gaps) if gaps else math.inf  # a schedule that never switches
        if self.dwell_min is None:
            self.dwell_min = inferred
        elif gaps and self.dwell_min > inferred + 1e-12:
            raise ValueError(
                f"declared dwell_min {self.dwell_min} exceeds the smallest segment gap {inferred}")
        self._starts = np.array(starts)

    @property
    def n(self) -> int:
        return self.graphs[0].n

    def boundaries(self, horizon: float) -> list[float]:
        """Switch times in (0, horizon), cyclic repetitions unrolled."""
        return [a for a, _, _ in self.segments_in(horizon)[1:]]

    def segments_in(self, horizon: float) -> list[tuple[float, float, int]]:
        """Contiguous (start, end, graph_index) pieces covering [0, horizon),
        cyclic repetitions unrolled.  A piece runs the digraph of the segment
        it repeats, not the one graph_at finds at its start: an unrolled
        start r*period + t_j can round just below the switch it stands for."""
        period = self.period or 0.0
        reps = 1 if self.period is None else int(math.ceil(horizon / period)) + 1
        starts = sorted(((r * period + t, i) for r in range(reps) for t, i in self.segments
                         if r * period + t < horizon), key=lambda start: start[0])
        ends = [t for t, _ in starts[1:]] + [horizon]
        return [(a, b, i) for (a, i), b in zip(starts, ends) if b > a]


def graph_at(sched: SwitchingSchedule, t: float) -> int:
    """Index of the digraph active at time t; at a switching instant the new
    segment applies (right continuity)."""
    if t < 0:
        raise ValueError("schedule is defined for t >= 0")
    if sched.period is not None:
        t = math.fmod(t, sched.period)
    elif sched.end_time is not None and t >= sched.end_time:
        raise ValueError(f"t={t} is beyond the schedule end {sched.end_time}")
    pos = bisect_right(sched._starts, t) - 1
    return sched.segments[pos][1]


@dataclass(frozen=True)
class AdmissibilityReport:
    all_balanced: bool
    dwell_ok: bool
    joint_connectivity_intervals: tuple
    recurrent: bool
    admissible: bool
    notes: tuple = ()


def validate_admissible(sched: SwitchingSchedule, horizon: float,
                        tol: float = 1e-10) -> AdmissibilityReport:
    """Check the admissibility ingredients over [0, horizon).

    Joint-connectivity windows are found greedily: extend each window one
    segment at a time until the union of active digraphs is strongly
    connected, then start the next window.  Findings are reported, never
    raised.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    notes = []
    referenced = sorted({idx for _, idx in sched.segments})
    all_balanced = all(is_weight_balanced(sched.graphs[i], tol) for i in referenced)
    if not all_balanced:
        bad = [i for i in referenced if not is_weight_balanced(sched.graphs[i], tol)]
        notes.append(f"unbalanced digraph indices: {bad}")
    dwell_ok = sched.dwell_min > 0
    if not dwell_ok:
        notes.append(f"dwell time {sched.dwell_min:g} is not positive")

    intervals = []
    acc = None
    window_start = 0.0
    for _, end, idx in sched.segments_in(horizon):
        edges = sched.graphs[idx].weights > 0
        acc = edges if acc is None else acc | edges
        if pattern_is_strongly_connected(acc):
            intervals.append((window_start, end))
            window_start = end
            acc = None
    if acc is not None:
        notes.append(f"window starting at {window_start:g} never became jointly "
                     f"strongly connected before the horizon")

    if sched.period is not None:
        recurrent = pattern_is_strongly_connected(
            np.logical_or.reduce([sched.graphs[i].weights > 0 for i in referenced]))
        notes.append("cyclic schedule: recurrence certified by one jointly "
                     "strongly connected period" if recurrent else
                     "cyclic schedule: the period union is not strongly connected")
    else:
        tail_graph = sched.graphs[sched.segments[-1][1]]
        if sched.end_time is None and is_strongly_connected(tail_graph):
            recurrent = True
            notes.append("eventually-constant schedule with a strongly connected "
                         "tail: treated as admissible (the formal definition asks "
                         "for infinitely many windows, which the constant tail supplies)")
        else:
            recurrent = False
            notes.append("finite-horizon only: recurrence cannot be certified")

    return AdmissibilityReport(
        all_balanced=all_balanced,
        dwell_ok=dwell_ok,
        joint_connectivity_intervals=tuple(intervals),
        recurrent=recurrent,
        admissible=bool(all_balanced and dwell_ok and recurrent),
        notes=tuple(notes),
    )


def schedule_from_json(fragment: dict) -> SwitchingSchedule:
    """Build a schedule from
    {"graphs": [graph | {"preset": name}, ...], "segments": [[t, idx], ...],
     "repeat": "none" | {"cyclic": period}}."""
    extra = set(fragment) - {"graphs", "segments", "repeat", "dwell_min", "end_time"}
    if extra:
        raise ValueError(f"unknown schedule key(s) {sorted(extra)}")
    try:
        graph_specs = fragment["graphs"]
        segments = fragment["segments"]
    except (KeyError, TypeError):
        raise ValueError('schedule JSON needs "graphs" and "segments"') from None
    graphs = [graph_from_json(spec) for spec in graph_specs]
    repeat = fragment.get("repeat", "none")
    if repeat == "none":
        period = None
    elif isinstance(repeat, dict) and set(repeat) == {"cyclic"}:
        period = float(repeat["cyclic"])
    else:
        raise ValueError('schedule "repeat" must be "none" or {"cyclic": period}')
    return SwitchingSchedule(
        graphs=graphs,
        segments=segments,
        period=period,
        dwell_min=fragment.get("dwell_min"),
        end_time=fragment.get("end_time"),
    )
