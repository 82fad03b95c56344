"""Benchmark workloads: three bundled scenarios and one generated from the seed.

``discrete_wide`` is built here: dcdisc on a weight-balanced, strongly
connected digraph made of weighted Hamiltonian cycles, with
sampled-piecewise-constant inputs.  ``discrete_reference`` recomputes that
run with plain numpy, sharing no code with the package, so any seed can be
checked without a stored reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCENARIO_DIR = Path("src") / "dacsim" / "scenarios"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str | None  # bundled file name, or None when generated from the seed
    svg: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("switching_case1", "case1.json", False),
        Workload("fixed_static", "static.json", True),
        Workload("saturated_cascade", "sat.json", False),
        Workload("discrete_wide", None, False),
    )
}

# discrete_wide sizing
WIDE_N = 40
WIDE_CYCLES = 3
WIDE_STEPS = 10000
WIDE_ALPHA = 1.0
WIDE_BETA = 1.0
# input hold in units of delta; far from any small rational, so no sampling
# instant k*delta lands on a hold boundary
WIDE_HOLD_RATIO = 20.742


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def wide_scenario(seed: int) -> dict:
    """The discrete_wide scenario for one seed (a plain JSON-ready dict)."""
    rng = np.random.default_rng(seed)
    weights: dict[tuple[int, int], float] = {}
    for _ in range(WIDE_CYCLES):
        order = rng.permutation(WIDE_N) + 1
        w = round(0.5 + float(rng.random()), 3)
        for a, b in zip(order, np.roll(order, -1)):
            key = (int(a), int(b))
            weights[key] = round(weights.get(key, 0.0) + w, 6)
    edges = [[i, j, w] for (i, j), w in sorted(weights.items())]

    out_degree = np.zeros(WIDE_N)
    for i, _, w in edges:
        out_degree[i - 1] += w
    bound = min(1.0 / WIDE_ALPHA, 1.0 / (WIDE_BETA * out_degree.max()))
    delta = math.floor(0.6 * bound * 1000) / 1000
    horizon = round(WIDE_STEPS * delta, 9)
    hold = round(WIDE_HOLD_RATIO * delta, 6)

    samples = int(horizon / hold) + 2
    common = 2.0 + np.cumsum(rng.normal(0.0, 0.1, samples))
    bias = rng.uniform(-1.0, 1.0, WIDE_N)
    noise = rng.normal(0.0, 0.05, (WIDE_N, samples))
    signals = [
        {"kind": "sampled-piecewise-constant",
         "params": {"hold": hold,
                    "values": [round(float(v), 6) for v in common + bias[i] + noise[i]]}}
        for i in range(WIDE_N)
    ]
    return {
        "name": "discrete_wide",
        "description": f"Generated dcdisc workload, seed {seed}",
        "graph": {"n": WIDE_N, "edges": edges},
        "protocol": "dcdisc",
        "params": {"alpha": WIDE_ALPHA, "beta": WIDE_BETA, "delta": delta},
        "inputs": {"signals": signals},
        "horizon": horizon,
        "tail_start": round(0.75 * horizon, 9),
        "seed": seed,
    }


def write_wide_scenario(seed: int, path) -> Path:
    """Write the scenario JSON; the same seed gives byte-identical files."""
    path = Path(path)
    path.write_text(json.dumps(wide_scenario(seed), separators=(",", ":")) + "\n")
    return path


def check_wide_scenario(data: dict) -> None:
    """Check the generated graph and stepsize with the package's own public
    functions before anything is timed; raises ValueError on a bad draw."""
    from dacsim.discrete import max_stepsize, pdelta_spectrum_check
    from dacsim.graphs import (graph_from_json, is_strongly_connected,
                               is_weight_balanced, spectral_summary)

    g = graph_from_json(data["graph"])
    p = data["params"]
    problems = []
    if not is_weight_balanced(g):
        problems.append("digraph is not weight-balanced")
    if not is_strongly_connected(g):
        problems.append("digraph is not strongly connected")
    bound = max_stepsize(p["alpha"], p["beta"], spectral_summary(g).d_max_out)
    if not p["delta"] < bound:
        problems.append(f"delta {p['delta']} is not below the stepsize bound {bound}")
    if not pdelta_spectrum_check(g, p["alpha"], p["beta"], p["delta"]).semi_convergent:
        problems.append("the one-step matrix is not semi-convergent")
    steps = int(round(data["horizon"] / p["delta"]))
    for sig in data["inputs"]["signals"]:
        ratio = np.arange(1, steps + 1) * p["delta"] / sig["params"]["hold"]
        if np.min(np.abs(ratio - np.round(ratio))) < 1e-9:
            problems.append("a sampling instant lands on an input hold boundary")
            break
    if problems:
        raise ValueError("; ".join(problems))


def discrete_reference(data: dict) -> dict:
    """Independent numpy run of the dcdisc recurrence

        z+ = z - d a z - d b L (z + u_k) - d v,   v+ = v + d a b L (z + u_k),
        x_k = z_k + u_k,

    with every CSV column and the checkable metrics it implies."""
    n = data["graph"]["n"]
    weights = np.zeros((n, n))
    for i, j, w in data["graph"]["edges"]:
        weights[i - 1, j - 1] += w
    lap = np.diag(weights.sum(axis=1)) - weights
    alpha, beta, delta = (data["params"][k] for k in ("alpha", "beta", "delta"))
    steps = int(round(data["horizon"] / delta))

    t = np.arange(steps + 1) * delta
    u = np.empty((steps + 1, n))
    for i, sig in enumerate(data["inputs"]["signals"]):
        vals = np.asarray(sig["params"]["values"], dtype=float)
        idx = np.minimum(np.floor(t / sig["params"]["hold"]).astype(int), vals.size - 1)
        u[:, i] = vals[idx]

    z = np.zeros((steps + 1, n))
    v = np.zeros((steps + 1, n))
    for k in range(steps):
        lzu = lap @ (z[k] + u[k])
        z[k + 1] = z[k] - delta * alpha * z[k] - delta * beta * lzu - delta * v[k]
        v[k + 1] = v[k] + delta * alpha * beta * lzu
    x = z + u
    avg = u.mean(axis=1)
    err = x - avg[:, None]

    du = np.diff(u, axis=0)
    gamma = float(np.max(np.linalg.norm(du - du.mean(axis=1, keepdims=True), axis=1)))
    lam_hat = float(np.linalg.eigvalsh(0.5 * (lap + lap.T))[1])
    ultimate = gamma / (delta * beta * lam_hat)
    tail = t >= data["tail_start"]
    columns = {"k": np.arange(steps + 1, dtype=float), "t": t}
    for prefix, arr in (("x", x), ("v", v), ("z", z)):
        columns.update({f"{prefix}{i + 1}": arr[:, i] for i in range(n)})
    columns["avg"] = avg
    columns.update({f"err{i + 1}": err[:, i] for i in range(n)})
    columns["bound_ultimate"] = np.full(steps + 1, ultimate)
    metrics = {
        "per_agent_sup_error_tail": np.abs(err[tail]).max(axis=0).tolist(),
        "bound_violations": 0,
        "gamma_used": gamma,
        "tail_start": data["tail_start"],
        "scenario": data["name"],
        "protocol": "dcdisc",
        "seed": data["seed"],
        "horizon": data["horizon"],
        "ultimate_bound": ultimate,
        "lambda_hat_2": lam_hat,
        "offset_prediction": 0.0,
    }
    return {"columns": columns, "metrics": metrics}
