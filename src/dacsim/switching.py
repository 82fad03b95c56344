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

from .graphs import WeightedDigraph, graph_from_json, is_strongly_connected, is_weight_balanced

__all__ = [
    "SwitchingSchedule",
    "AdmissibilityReport",
    "graph_at",
    "union_digraph",
    "validate_admissible",
    "schedule_from_json",
]


@dataclass
class SwitchingSchedule:
    """Ordered topology segments: ``segments[k] = (start_time, graph_index)``
    with the first start at 0.  ``period`` makes the schedule cyclic; without
    it the final segment holds indefinitely (or until ``end_time`` when the
    caller declares a bounded domain).
    """

    graphs: tuple
    segments: tuple
    period: Optional[float] = None
    dwell_min: Optional[float] = None
    end_time: Optional[float] = None
    _starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.graphs = tuple(self.graphs)
        self.segments = tuple((float(t), int(i)) for t, i in self.segments)
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
        inferred = min(gaps) if gaps else math.inf
        if self.dwell_min is None:
            self.dwell_min = inferred if math.isfinite(inferred) else 0.0
        elif gaps and self.dwell_min > inferred + 1e-12:
            raise ValueError(
                f"declared dwell_min {self.dwell_min} exceeds the smallest segment gap {inferred}")
        self._starts = np.array(starts)

    @property
    def n(self) -> int:
        return self.graphs[0].n

    def boundaries(self, horizon: float) -> list[float]:
        """Switch times in (0, horizon), cyclic repetitions unrolled."""
        out = []
        if self.period is None:
            out = [t for t, _ in self.segments if 0.0 < t < horizon]
        else:
            reps = int(math.ceil(horizon / self.period)) + 1
            for r in range(reps):
                base = r * self.period
                for t, _ in self.segments:
                    s = base + t
                    if 0.0 < s < horizon:
                        out.append(s)
        return sorted(out)

    def segments_in(self, horizon: float) -> list[tuple[float, float, int]]:
        """Contiguous (start, end, graph_index) pieces covering [0, horizon).
        A cyclic piece takes the digraph active at its midpoint: an unrolled
        boundary r*period + t_j can round just below the switch it stands
        for, where graph_at would still return the previous digraph."""
        cuts = [0.0] + self.boundaries(horizon) + [horizon]
        cyclic = self.period is not None
        return [(a, b, graph_at(self, 0.5 * (a + b) if cyclic else a))
                for a, b in zip(cuts, cuts[1:]) if b > a]


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


def union_digraph(gs) -> WeightedDigraph:
    """Joint digraph: union of the edge sets; a shared edge keeps the largest
    weight, which is deterministic and preserves connectivity semantics."""
    gs = list(gs)
    if not gs:
        raise ValueError("union of an empty digraph list is undefined")
    n = gs[0].n
    if any(g.n != n for g in gs):
        raise ValueError("digraphs must share the node count")
    weights = gs[0].weights.copy()
    for g in gs[1:]:
        np.maximum(weights, g.weights, out=weights)
    return WeightedDigraph(n=n, weights=weights)


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
    dwell_ok = sched.dwell_min is not None and sched.dwell_min > 0

    intervals = []
    acc = None
    window_start = 0.0
    pieces = sched.segments_in(horizon)
    for start, end, idx in pieces:
        g = sched.graphs[idx]
        acc = g if acc is None else union_digraph([acc, g])
        if is_strongly_connected(acc):
            intervals.append((window_start, end))
            window_start = end
            acc = None
    if acc is not None:
        notes.append(f"window starting at {window_start:g} never became jointly "
                     f"strongly connected before the horizon")

    if sched.period is not None:
        period_union = union_digraph([sched.graphs[i] for i in referenced])
        recurrent = is_strongly_connected(period_union)
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
        segments=tuple((float(t), int(i)) for t, i in segments),
        period=period,
        dwell_min=fragment.get("dwell_min"),
        end_time=fragment.get("end_time"),
    )
