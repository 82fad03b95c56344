"""Scenario configuration: strict JSON schema, full-diagnostic validation,
and builders that turn a config into the simulator's objects.

Validation is collect-everything: a bad file reports every violation at once,
and unknown keys are rejected with a closest-match suggestion so typos like
"alpha_" do not silently change a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import check_on_grid
from .graphs import graph_from_json, is_strongly_connected, is_weight_balanced, topology_preset
from .protocols import PROTOCOL_IDS, Z_STATE_PROTOCOLS, AlgorithmParams, ThetaGain
from .signals import SCENARIO_PRESETS, InputSet, preset_scenario, signal_from_json
from .switching import schedule_from_json, validate_admissible

__all__ = ["ScenarioConfig", "ConfigError", "load_scenario", "validate_scenario", "scenario_to_json"]

TOP_KEYS = {
    "name", "description", "graph", "schedule", "protocol", "params", "inputs",
    "horizon", "step", "tail_start", "seed", "init", "outputs",
    "waive_graph_checks",
}
PARAM_KEYS = {"alpha", "beta", "theta", "sat_limits", "psi", "delta", "kappa", "lambda_hat_sigma"}
INIT_KEYS = {"x0", "v0", "z0"}
# file name of each output, after the scenario name, unless "outputs" names one
OUTPUT_SUFFIXES = {"csv": ".csv", "metrics": "_metrics.json", "svg": ".svg"}
DEFAULT_STEP = 1e-3
# Largest stored state of a run, in float64 cells: the rows of its time grid
# times its state columns per agent (x and v, and z where the protocol keeps
# one), checked before any per-step work or allocation.
STATE_BUDGET = 10 ** 8
STATE_WIDTH = {"dc1": 2, "dc1_sat": 2, "dc2": 3, "dc2_sat": 3, "dc3": 3, "dcdisc": 3}


class ConfigError(ValueError):
    """All schema/constraint violations of one scenario file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario configuration:\n  - " + "\n  - ".join(self.problems))


@dataclass(eq=False)
class ScenarioConfig:
    """A validated scenario.  ``raw`` is the exact JSON content; the build_*
    methods construct fresh simulator objects from it.  ``n`` is the agent
    count, resolved once at validation.  ``outputs`` maps each output kind
    to its file name, custom or default, no two of them the same file."""

    raw: dict
    name: str
    protocol: str
    horizon: float
    step: float
    tail_start: float
    seed: int
    n: int
    delta: float | None = None
    kappa: float | None = None
    lambda_hat_sigma: float | None = None
    x0: np.ndarray = field(default=None)
    v0: np.ndarray = field(default=None)
    z0: np.ndarray = field(default=None)
    outputs: dict = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, ScenarioConfig) and self.raw == other.raw

    def build_topology(self):
        if "graph" in self.raw:
            return _build_graph(self.raw["graph"])
        return schedule_from_json(self.raw["schedule"])

    def build_inputs(self) -> InputSet:
        spec = self.raw["inputs"]
        if "preset" in spec:
            return preset_scenario(spec["preset"], seed=self.seed)
        return InputSet(signals=tuple(signal_from_json(s) for s in spec["signals"]))

    def build_params(self) -> AlgorithmParams:
        p = self.raw["params"]
        n = self.n
        theta = _build_theta(p["theta"], n) if "theta" in p else None
        sat = _per_agent(p["sat_limits"], n) if "sat_limits" in p else None
        psi = signal_from_json(p["psi"]).value if "psi" in p else None
        return AlgorithmParams(alpha=float(p["alpha"]), beta=float(p["beta"]),
                               theta=theta, sat_limits=sat, psi=psi)


def _build_graph(spec):
    if isinstance(spec, dict) and "preset" in spec:
        return topology_preset(spec["preset"])
    return graph_from_json(spec)


def _per_agent(value, n) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.full(n, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected a scalar or a list of {n} values")
    return arr


def _build_theta(spec, n) -> ThetaGain:
    if isinstance(spec, (int, float)) or isinstance(spec, list):
        return ThetaGain.constant(_per_agent(spec, n))
    if isinstance(spec, dict) and spec.get("name") == "constant":
        return ThetaGain.constant(_per_agent(spec["values"], n))
    if isinstance(spec, dict) and spec.get("name") == "sine":
        base = _per_agent(spec.get("base", 1.0), n)
        amp = float(spec.get("amplitude", 0.5))
        freq = float(spec.get("frequency", 1.0))
        if not 0.0 <= amp < 1.0:
            raise ValueError("sine theta schedule needs 0 <= amplitude < 1")
        return ThetaGain(fn=lambda t: base * (1.0 + amp * math.sin(freq * t)),
                         lower=base * (1.0 - amp), upper=base * (1.0 + amp))
    raise ValueError('theta must be a number, a list, or a named schedule '
                     '("constant" or "sine")')


def _suggest(key, pool) -> str:
    import difflib  # only an unknown key needs it: kept out of every run's set-up

    close = difflib.get_close_matches(key, pool, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_keys(mapping, allowed, where, problems):
    for key in mapping:
        if key not in allowed:
            problems.append(f"unknown field {key!r} in {where}{_suggest(key, allowed)}")


def _non_numbers(fragment, path, problems):
    """Report every NaN, +-Infinity and boolean in a JSON object or array;
    Python's json parses all three, and no field but the top-level
    "waive_graph_checks" flag takes them.  Paths are formatted only for a
    problem, since sample lists can hold many thousands of numbers."""
    items = fragment.items() if isinstance(fragment, dict) else enumerate(fragment)
    for key, value in items:
        if isinstance(value, float):  # the common case first
            if not math.isfinite(value):
                problems.append(f'"{_child(path, key)}" must be a finite number, '
                                f'got {json.dumps(value)}')
        elif isinstance(value, (dict, list)):
            _non_numbers(value, _child(path, key), problems)
        elif isinstance(value, bool):
            problems.append(f'"{_child(path, key)}" must not be a boolean, got {json.dumps(value)}')


def _child(path, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def validate_scenario(data: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a raw scenario dict; raises ConfigError listing every problem.

    Non-finite numbers and booleans are reported first and on their own,
    because every later check computes with the numbers."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["scenario file must contain a JSON object"])
    _non_numbers({k: v for k, v in data.items() if k != "waive_graph_checks"}, "", problems)
    if problems:
        raise ConfigError(problems)
    _check_keys(data, TOP_KEYS, "scenario", problems)

    protocol = data.get("protocol")
    if protocol not in PROTOCOL_IDS:
        problems.append(f'"protocol" must be one of {PROTOCOL_IDS}, got {protocol!r}')

    has_graph, has_schedule = "graph" in data, "schedule" in data
    if has_graph == has_schedule:
        problems.append('exactly one of "graph" or "schedule" is required')
    topology = None
    if has_graph != has_schedule:
        try:
            topology = _build_graph(data["graph"]) if has_graph \
                else schedule_from_json(data["schedule"])
        except (ValueError, TypeError) as exc:
            problems.append(f'bad "graph"/"schedule": {exc}')
    n = topology.n if topology is not None else None

    params = data.get("params")
    if not isinstance(params, dict):
        problems.append('"params" object is required')
        params = {}
    _check_keys(params, PARAM_KEYS, '"params"', problems)
    for gain in ("alpha", "beta"):
        value = params.get(gain)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f'"params.{gain}" must be a positive number, got {value!r}')
    if protocol in Z_STATE_PROTOCOLS and "theta" not in params:
        problems.append(f'protocol {protocol} requires "params.theta"')
    if protocol in ("dc1_sat", "dc2_sat") and "sat_limits" not in params:
        problems.append(f'protocol {protocol} requires "params.sat_limits"')
    delta = params.get("delta")
    if protocol == "dcdisc":
        if not isinstance(delta, (int, float)) or delta <= 0:
            problems.append('"params.delta" must be a positive number for dcdisc')
        if has_schedule:
            problems.append("dcdisc runs on a fixed graph only (switching is out of scope)")
    elif delta is not None:
        problems.append('"params.delta" only applies to the dcdisc protocol')
    for opt in ("kappa", "lambda_hat_sigma"):
        if opt in params and (not isinstance(params[opt], (int, float)) or params[opt] <= 0):
            problems.append(f'"params.{opt}" must be a positive number')
    if ("kappa" in params) != ("lambda_hat_sigma" in params):
        problems.append('"params.kappa" and "params.lambda_hat_sigma" must be given together')
    if n is not None:
        # dry-build the structured parameters so shape problems surface here
        for key, builder in (("theta", lambda v: _build_theta(v, n)),
                             ("sat_limits", lambda v: _per_agent(v, n)),
                             ("psi", signal_from_json)):
            if key in params:
                try:
                    builder(params[key])
                except (ValueError, TypeError) as exc:
                    problems.append(f'bad "params.{key}": {exc}')

    inputs_spec = data.get("inputs")
    inputs = None
    if not isinstance(inputs_spec, dict) or ("preset" not in inputs_spec) == ("signals" not in inputs_spec):
        problems.append('"inputs" must carry exactly one of "preset" or "signals"')
    else:
        _check_keys(inputs_spec, {"preset", "signals"}, '"inputs"', problems)
        try:
            if "preset" in inputs_spec:
                if inputs_spec["preset"] not in SCENARIO_PRESETS:
                    raise ValueError(f'unknown preset {inputs_spec["preset"]!r}; '
                                     f"choose from {SCENARIO_PRESETS}")
                inputs = preset_scenario(inputs_spec["preset"], seed=int(data.get("seed", 0)))
            else:
                inputs = InputSet(signals=tuple(signal_from_json(s) for s in inputs_spec["signals"]))
        except (ValueError, TypeError) as exc:
            problems.append(f'bad "inputs": {exc}')
    if inputs is not None and n is not None and len(inputs) != n:
        problems.append(f"inputs provide {len(inputs)} signals but the topology has {n} nodes")

    horizon = data.get("horizon")
    if not isinstance(horizon, (int, float)) or horizon <= 0:
        problems.append('"horizon" must be a positive number')
        horizon = 1.0
    step = data.get("step", DEFAULT_STEP)
    if not isinstance(step, (int, float)) or step <= 0:
        problems.append('"step" must be a positive number')
        step = DEFAULT_STEP
    unit = None
    if protocol == "dcdisc" and isinstance(delta, (int, float)) and delta > 0:
        unit, what = delta, "delta steps for dcdisc"
    elif protocol != "dcdisc":
        unit, what = step, "integration steps"
    if unit is not None:
        count = horizon / unit
        if not math.isfinite(count):
            problems.append(f'"horizon" spans more {what} than can be counted')
        else:
            if protocol != "dcdisc":
                _off_grid(horizon, step, '"horizon"', problems)
            elif abs(count - round(count)) > 1e-9:
                problems.append(f'"horizon" must be a whole number of {what}')
            if n is not None and protocol in STATE_WIDTH:
                rows, width = round(count) + 1, STATE_WIDTH[protocol] * n
                if rows * width > STATE_BUDGET:
                    problems.append(f'"horizon" gives {rows} stored rows of {width} state '
                                    f'values, {rows * width:.3g} in all, above the budget '
                                    f'of {STATE_BUDGET:.0e}')

    tail_start = data.get("tail_start", 0.75 * float(horizon))
    if not isinstance(tail_start, (int, float)) or not 0 <= tail_start < horizon:
        problems.append('"tail_start" must lie in [0, horizon)')
        tail_start = 0.75 * float(horizon)

    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        problems.append('"seed" must be an integer')
        seed = 0

    init = data.get("init", {})
    if not isinstance(init, dict):
        problems.append('"init" must be an object')
        init = {}
    _check_keys(init, INIT_KEYS, '"init"', problems)
    x0 = v0 = z0 = None
    if n is not None and inputs is not None and len(inputs) == n:
        u0 = inputs.values(0.0)
        try:
            x0 = _init_vector(init.get("x0", "zeros"), n, None, u0, "x0")
            v0 = _init_vector(init.get("v0", "zeros"), n, None, None, "v0")
            z0 = _init_vector(init.get("z0", "x0"), n, x0, u0, "z0")
        except ValueError as exc:
            problems.append(str(exc))

    outputs = data.get("outputs", {})
    if not isinstance(outputs, dict):
        problems.append('"outputs" must be an object')
        outputs = {}
    _check_keys(outputs, OUTPUT_SUFFIXES, '"outputs"', problems)
    scenario_name = str(data.get("name", name))
    files = {}
    for kind, suffix in OUTPUT_SUFFIXES.items():
        file = outputs.get(kind, scenario_name + suffix)
        if not (isinstance(file, str) and file):
            problems.append(f'"outputs.{kind}" must be a non-empty file name, got {file!r}')
            continue
        clash = [other for other, f in files.items() if Path(f) == Path(file)]
        if clash:
            problems.append(f'"outputs.{kind}" names {file!r}, the file of the '
                            f'{clash[0]} output')
        files[kind] = file

    if hasattr(topology, "boundaries") and not problems:
        # neither the schedule's domain nor grid alignment is a graph
        # hypothesis: "waive_graph_checks" keeps both.  The run reads the
        # digraph at t = horizon, and graph_at is defined before end_time.
        end = topology.end_time
        if end is not None and not (isinstance(end, (int, float)) and end > horizon):
            problems.append(f'schedule "end_time" must be a number beyond the horizon '
                            f'{horizon:g}, got {end!r}')
        for b in topology.boundaries(horizon):
            if _off_grid(b, step, "switching boundary", problems):
                break
    waived = bool(data.get("waive_graph_checks", False))
    if topology is not None and not waived and not problems:
        problems.extend(_topology_problems(topology, horizon))

    if problems:
        raise ConfigError(problems)

    return ScenarioConfig(
        raw=data,
        name=scenario_name,
        protocol=protocol,
        horizon=float(horizon),
        step=float(step),
        tail_start=float(tail_start),
        seed=seed,
        n=n,
        delta=float(delta) if protocol == "dcdisc" else None,
        kappa=params.get("kappa"),
        lambda_hat_sigma=params.get("lambda_hat_sigma"),
        x0=x0, v0=v0, z0=z0,
        outputs=files,
    )


def _init_vector(spec, n, x0, u0, label):
    """Named policies: "zeros"; "u0" starts agents at their own input value
    (x0/z0 only); "x0" copies the resolved x0 (z0 only)."""
    if isinstance(spec, str):
        if spec == "zeros":
            return np.zeros(n)
        if spec == "u0" and u0 is not None and label != "v0":
            return np.asarray(u0, dtype=float).copy()
        if spec == "x0" and x0 is not None and label == "z0":
            return x0.copy()
        raise ValueError(f'"init.{label}" got unsupported policy {spec!r}')
    arr = np.asarray(spec, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f'"init.{label}" must list {n} values')
    return arr


def _off_grid(value, step, what, problems) -> bool:
    """Report value unless it is a whole number of steps (``check_on_grid``,
    the rule the run applies)."""
    try:
        check_on_grid(value, step, what)
    except ValueError as exc:
        problems.append(str(exc))
        return True
    return False


def _topology_problems(topology, horizon) -> list[str]:
    """Graph hypotheses: weight balance, connectivity/admissibility."""
    problems = []
    if hasattr(topology, "weights"):  # fixed digraph
        if not is_weight_balanced(topology):
            problems.append("digraph is not weight-balanced "
                            '(set "waive_graph_checks" to run anyway)')
        if not is_strongly_connected(topology):
            problems.append("digraph is not strongly connected "
                            '(set "waive_graph_checks" to run anyway)')
        return problems
    report = validate_admissible(topology, horizon=horizon)
    if not report.admissible:
        detail = "; ".join(report.notes) or "see admissibility report"
        problems.append(f"switching schedule is not admissible: {detail} "
                        '(set "waive_graph_checks" to run anyway)')
    return problems


def load_scenario(path) -> ScenarioConfig:
    """Read and fully validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc
    return validate_scenario(data, name=path.stem)


def scenario_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.raw, indent=2, sort_keys=True)
