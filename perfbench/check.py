"""Correctness check of one run's artefacts.

Bundled workloads are compared with a compact reference recorded from a
known-good commit (``reference/<workload>.json``): sampled CSV rows, norms of
every CSV column over all rows, and the metrics JSON.  ``discrete_wide`` is
compared with the independent recurrence in ``workloads.discrete_reference``
on every CSV cell.

A difference is measured relative to a scale: the column's largest magnitude
in the reference for CSV cells, the reference value for column norms, and
max(|reference|, METRIC_FLOOR) for metrics-JSON numbers.  A run passes when
the artefacts exist, their structure matches, and the largest such relative
difference is at most RTOL.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-6
METRIC_FLOOR = 1e-6
SAMPLE_ROWS = 200
# metrics the independent discrete recurrence does not reproduce: the decay
# fit, and a conservation residual that is pure roundoff
DISCRETE_UNCHECKED = ("fitted_rate", "conservation_residual")


@dataclass
class CheckResult:
    max_rel_diff: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def diff(self, what: str, rel: float):
        if math.isnan(rel):
            rel = math.inf
        if rel > RTOL:
            self.problems.append(f"{what}: relative difference {rel:.3g} > {RTOL:g}")
        self.max_rel_diff = max(self.max_rel_diff, rel)


def read_csv(path):
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def csv_summary(header, data) -> dict:
    """What the reference keeps of a CSV: every SAMPLE_ROWS-th row plus the
    last one, and per-column max-abs, L1 and L2 norms over all rows."""
    stride = max(1, data.shape[0] // SAMPLE_ROWS)
    index = sorted(set(range(0, data.shape[0], stride)) | {data.shape[0] - 1})
    absd = np.abs(data)
    return {
        "header": header,
        "rows": int(data.shape[0]),
        "sample_index": index,
        "sample_rows": data[index].tolist(),
        "col_max_abs": absd.max(axis=0).tolist(),
        "col_l1": absd.sum(axis=0).tolist(),
        "col_l2": np.sqrt((data * data).sum(axis=0)).tolist(),
    }


def svg_polylines(path) -> int:
    return sum(1 for el in ET.parse(path).getroot().iter() if el.tag.endswith("polyline"))


def artefact_paths(out_dir, name: str) -> dict:
    out_dir = Path(out_dir)
    return {"csv": out_dir / f"{name}.csv",
            "metrics": out_dir / f"{name}_metrics.json",
            "svg": out_dir / f"{name}.svg"}


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(value[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def compare_metrics(res: CheckResult, actual: dict, expected: dict, skip=()):
    missing = sorted(set(expected) - set(actual) - set(skip))
    extra = sorted(set(actual) - set(expected) - set(skip))
    if missing or extra:
        res.problems.append(f"metrics keys differ: missing {missing}, unexpected {extra}")
    got = dict(_flatten({k: v for k, v in actual.items() if k in expected}))
    for key, ref in _flatten({k: v for k, v in expected.items() if k in actual}):
        val = got.get(key, "<absent>")
        numeric = (isinstance(ref, (int, float)) and isinstance(val, (int, float))
                   and not isinstance(ref, bool) and not isinstance(val, bool))
        if numeric:
            res.diff(f"metrics {key}", abs(val - ref) / max(abs(ref), METRIC_FLOOR))
        elif val != ref:
            res.problems.append(f"metrics {key}: {val!r} != {ref!r}")


def _rel_cells(actual, ref, scale) -> float:
    return float(np.max(np.abs(actual - ref) / np.maximum(scale, 1e-300)))


def check_bundled(out_dir, name: str, reference: dict, svg: bool) -> CheckResult:
    res = CheckResult()
    paths = artefact_paths(out_dir, name)
    wanted = ("csv", "metrics", "svg") if svg else ("csv", "metrics")
    absent = [k for k in wanted if not paths[k].is_file()]
    if absent:
        res.problems.append(f"missing artefacts: {absent}")
        return res
    ref_csv = reference["csv"]
    header, data = read_csv(paths["csv"])
    if header != ref_csv["header"] or data.shape != (ref_csv["rows"], len(header)):
        res.problems.append(f"CSV shape/header differ: {data.shape} vs "
                            f"({ref_csv['rows']}, {len(ref_csv['header'])})")
    else:
        scale = np.asarray(ref_csv["col_max_abs"])
        res.diff("CSV sampled rows", _rel_cells(
            data[ref_csv["sample_index"]], np.asarray(ref_csv["sample_rows"]), scale))
        absd = np.abs(data)
        for key, got in (("col_max_abs", absd.max(axis=0)), ("col_l1", absd.sum(axis=0)),
                         ("col_l2", np.sqrt((data * data).sum(axis=0)))):
            ref = np.asarray(ref_csv[key])
            res.diff(f"CSV {key}", _rel_cells(got, ref, np.abs(ref)))
    compare_metrics(res, json.loads(paths["metrics"].read_text()), reference["metrics"])
    if svg:
        try:
            lines = svg_polylines(paths["svg"])
        except ET.ParseError as exc:
            res.problems.append(f"SVG is not well-formed: {exc}")
        else:
            if lines != reference["svg_polylines"]:
                res.problems.append(f"SVG has {lines} polylines, expected "
                                    f"{reference['svg_polylines']}")
    return res


def check_discrete(out_dir, name: str, expected: dict) -> CheckResult:
    res = CheckResult()
    paths = artefact_paths(out_dir, name)
    absent = [k for k in ("csv", "metrics") if not paths[k].is_file()]
    if absent:
        res.problems.append(f"missing artefacts: {absent}")
        return res
    header, data = read_csv(paths["csv"])
    cols = expected["columns"]
    if header != list(cols):
        res.problems.append(f"CSV header differs: {header[:4]}... vs {list(cols)[:4]}...")
    elif data.shape[0] != len(cols["t"]):
        res.problems.append(f"CSV has {data.shape[0]} rows, expected {len(cols['t'])}")
    else:
        ref = np.column_stack(list(cols.values()))
        res.diff("CSV cells", _rel_cells(data, ref, np.abs(ref).max(axis=0)))
    compare_metrics(res, json.loads(paths["metrics"].read_text()), expected["metrics"],
                    skip=DISCRETE_UNCHECKED)
    return res
