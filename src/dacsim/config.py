"""Scenario configuration: strict JSON schema and full-diagnostic
validation, which builds the simulator's objects once and keeps them on the
config.

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

from .engine import check_on_grid, check_switches_on_grid
from .graphs import graph_from_json, is_strongly_connected, is_weight_balanced
from .protocols import PROTOCOL_IDS, PROTOCOL_KEYS, AlgorithmParams, ThetaGain
from .signals import SCENARIO_PRESETS, InputSet, preset_scenario, read_params, signal_from_json
from .switching import schedule_from_json, validate_admissible

__all__ = ["ScenarioConfig", "ConfigError", "load_scenario", "read_scenario", "validate_scenario"]

TOP_KEYS = {
    "name", "description", "graph", "schedule", "protocol", "params", "inputs",
    "horizon", "step", "tail_start", "seed", "init", "outputs",
    "waive_graph_checks",
}
PARAM_KEYS = {"alpha", "beta", "theta", "sat_limits", "psi", "delta", "kappa", "lambda_hat_sigma"}
INIT_KEYS = {"x0", "v0", "z0"}
# the parameters of the named theta schedule {"name": "sine", ...}, with their defaults
THETA_SINE = {"base": 1.0, "amplitude": 0.5, "frequency": 1.0}
# file name of each output, after the scenario name, unless "outputs" names one
OUTPUT_SUFFIXES = {"csv": ".csv", "metrics": "_metrics.json", "svg": ".svg"}
DEFAULT_STEP = 1e-3
# Largest stored state of a run, in float64 cells: the rows of its time grid
# times its state columns per agent (x and v, and z where the protocol keeps
# one, which is where it reads "init.z0"; dcdisc's (x, v, z) buffer is three),
# checked before any per-step work or allocation.
STATE_BUDGET = 10 ** 8
STATE_WIDTH = {p: 3 if "init.z0" in optional else 2 for p, (_, optional) in PROTOCOL_KEYS.items()}
# the keys that some protocols do not read (protocols.PROTOCOL_KEYS)
PROTOCOL_SPECIFIC_KEYS = {key for required, optional in PROTOCOL_KEYS.values() for key in required + optional}


class ConfigError(ValueError):
    """All schema/constraint violations of one scenario file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario configuration:\n  - " + "\n  - ".join(self.problems))


@dataclass(eq=False)
class ScenarioConfig:
    """A validated scenario.  ``raw`` is the exact JSON content.  ``n``, the
    topology, the inputs and the parameters are built once, at validation,
    and the build_* methods return those objects, so every run of the
    config shares them.  ``outputs`` maps each output kind to its file
    name, custom or default, no two of them the same file.
    ``admissibility`` is a schedule's report when validation scanned it,
    which it does unless "waive_graph_checks" is set."""

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
    topology: object = field(default=None, repr=False)
    inputs: InputSet = field(default=None, repr=False)
    params: AlgorithmParams = field(default=None, repr=False)
    admissibility: object = field(default=None, repr=False)

    def __eq__(self, other):
        return isinstance(other, ScenarioConfig) and self.raw == other.raw

    def build_topology(self):
        return self.topology

    def build_inputs(self) -> InputSet:
        return self.inputs

    def build_params(self) -> AlgorithmParams:
        return self.params


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
    if isinstance(spec, dict) and spec.get("name") == "sine":
        given = {k: v for k, v in spec.items() if k != "name"}
        base, amp, freq = read_params("theta schedule 'sine'", THETA_SINE, given)
        base, amp, freq = _per_agent(base, n), float(amp), float(freq)
        if not 0.0 <= amp < 1.0:
            raise ValueError("sine theta schedule needs 0 <= amplitude < 1")
        return ThetaGain(fn=lambda t: base * (1.0 + amp * math.sin(freq * t)),
                         lower=base * (1.0 - amp), upper=base * (1.0 + amp))
    raise ValueError(f'theta must be a number, a list, or the named schedule '
                     f'{{"name": "sine", ...}}, got {spec!r}')


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
            topology = graph_from_json(data["graph"]) if has_graph \
                else schedule_from_json(data["schedule"])
        except (ValueError, TypeError) as exc:
            problems.append(f'bad "graph"/"schedule": {exc}')
    if topology is not None and topology.n < 2:
        problems.append(f'the {"graph" if has_graph else "schedule"} has {topology.n} agent; '
                        "average consensus needs at least two")
        topology = None
    n = topology.n if topology is not None else None

    params = data.get("params")
    if not isinstance(params, dict):
        problems.append('"params" object is required')
        params = {}
    _check_keys(params, PARAM_KEYS, '"params"', problems)
    before = len(problems)
    for gain in ("alpha", "beta"):
        value = params.get(gain)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f'"params.{gain}" must be a positive number, got {value!r}')
    gains_ok = len(problems) == before
    delta = params.get("delta")
    if protocol == "dcdisc":
        if delta is not None and (not isinstance(delta, (int, float)) or delta <= 0):
            problems.append('"params.delta" must be a positive number for dcdisc')
        if has_schedule:
            problems.append("dcdisc runs on a fixed graph only (switching is out of scope)")
    for opt in ("kappa", "lambda_hat_sigma"):
        if opt in params and (not isinstance(params[opt], (int, float)) or params[opt] <= 0):
            problems.append(f'"params.{opt}" must be a positive number')
    if ("kappa" in params) != ("lambda_hat_sigma" in params):
        problems.append('"params.kappa" and "params.lambda_hat_sigma" must be given together')
    algo = None
    if n is not None:
        # the run's parameters, built here so that shape problems surface
        # with the others
        built, before = {}, len(problems)
        for key, builder in (("theta", lambda v: _build_theta(v, n)),
                             ("sat_limits", lambda v: _per_agent(v, n)),
                             ("psi", lambda v: signal_from_json(v).value)):
            if key in params:
                try:
                    built[key] = builder(params[key])
                except (ValueError, TypeError) as exc:
                    problems.append(f'bad "params.{key}": {exc}')
        if gains_ok and len(problems) == before:
            try:
                algo = AlgorithmParams(alpha=float(params["alpha"]),
                                       beta=float(params["beta"]), **built)
            except ValueError as exc:
                problems.append(f'bad "params": {exc}')

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
        unit, what, unit_name = delta, "delta steps for dcdisc", '"params.delta"'
    elif protocol != "dcdisc":
        unit, what, unit_name = step, "integration steps", "h"
    if unit is not None:
        count = horizon / unit
        if not math.isfinite(count):
            problems.append(f'"horizon" spans more {what} than can be counted')
        else:
            _off_grid(horizon, unit, '"horizon"', problems, unit_name)
            if n is not None and protocol in STATE_WIDTH:
                rows, width = round(count) + 1, STATE_WIDTH[protocol] * n
                if rows * width > STATE_BUDGET:
                    problems.append(f'"horizon" gives {rows:.3g} stored rows of {width} state '
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
    if protocol in PROTOCOL_KEYS:
        given = {f"params.{k}" for k in params} | {f"init.{k}" for k in init} | {"step"} & set(data)
        required, optional = PROTOCOL_KEYS[protocol]
        problems.extend(f'protocol {protocol} requires "{key}"' for key in required if key not in given)
        for key in sorted(given & PROTOCOL_SPECIFIC_KEYS - set(required + optional)):
            problems.append(f'protocol {protocol} does not read "{key}"')
        if protocol == "dcdisc" and {"init.x0", "init.z0"} <= given:
            problems.append('protocol dcdisc does not read "init.x0" beside "init.z0", which it starts from')
        if has_graph:  # only a schedule's bounds read kappa and lambda_hat_sigma
            for key in sorted(given & {"params.kappa", "params.lambda_hat_sigma"}):
                problems.append(f'protocol {protocol} does not read "{key}" on a fixed digraph, '
                                "where the bounds use (lambda_hat_2, 1)")
    x0 = v0 = z0 = None
    if n is not None and inputs is not None and len(inputs) == n:
        # the initial state, the continuous dynamics and the bounds read
        # u(0) and du/dt(0); dcdisc reads only u
        with np.errstate(all="ignore"):  # a pole at t = 0 is reported below
            u0, du0 = inputs.eval_all(0.0)
        reads = (("u(0)", u0),) if protocol == "dcdisc" else (("u(0)", u0), ("du/dt(0)", du0))
        for i in range(n):
            bad = [f"{what} = {vals[i]:g}" for what, vals in reads if not math.isfinite(vals[i])]
            if bad:
                problems.append(f'the input of agent {i + 1} is not finite at t = 0: {", ".join(bad)}')
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
    # every output, the partial CSV of a diverged run too, is written in the
    # output directory under its plain file name
    name_ok = _plain_file_name(scenario_name)
    if not name_ok:
        problems.append(f'"name" must be a file name with no directory part, '
                        f'got {scenario_name!r}')
    files = {}
    for kind, suffix in OUTPUT_SUFFIXES.items():
        if kind not in outputs and not name_ok:
            continue
        file = outputs.get(kind, scenario_name + suffix)
        if not (isinstance(file, str) and file):
            problems.append(f'"outputs.{kind}" must be a non-empty file name, got {file!r}')
            continue
        if not _plain_file_name(file):
            problems.append(f'"outputs.{kind}" must be a file name with no directory part, '
                            f'got {file!r}')
            continue
        clash = [other for other, f in files.items() if Path(f) == Path(file)]
        if clash:
            problems.append(f'"outputs.{kind}" names {file!r}, the file of the '
                            f'{clash[0]} output')
        files[kind] = file

    if hasattr(topology, "boundaries") and not problems:
        # grid alignment is not a graph hypothesis: "waive_graph_checks" keeps it
        try:
            check_switches_on_grid(topology, step, horizon)
        except ValueError as exc:
            problems.append(str(exc))
    waived = bool(data.get("waive_graph_checks", False))
    admissibility = None
    if topology is not None and not waived and not problems:
        admissibility = _topology_problems(topology, horizon, problems)

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
        topology=topology, inputs=inputs, params=algo, admissibility=admissibility,
    )


def _plain_file_name(file: str) -> bool:
    """A name that opens a file inside the directory it is joined to:
    "./a.csv" is "a.csv", while "/tmp/a.csv", "../a", "sub/a", "." and
    ".." are not."""
    path = Path(file)
    return path.parent == Path(".") and path.name not in ("", ".", "..")


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


def _off_grid(value, step, what, problems, name="h") -> bool:
    """Report value unless it is a whole number of steps (``check_on_grid``,
    the rule the run applies); ``name`` names the step in the message."""
    try:
        check_on_grid(value, step, what, name)
    except ValueError as exc:
        problems.append(str(exc))
        return True
    return False


def _topology_problems(topology, horizon, problems):
    """Report the graph hypotheses that fail: weight balance, connectivity
    or admissibility.  Returns a schedule's admissibility report, or None
    for a fixed digraph."""
    if hasattr(topology, "weights"):  # fixed digraph
        if not is_weight_balanced(topology):
            problems.append("digraph is not weight-balanced "
                            '(set "waive_graph_checks" to run anyway)')
        if not is_strongly_connected(topology):
            problems.append("digraph is not strongly connected "
                            '(set "waive_graph_checks" to run anyway)')
        return None
    report = validate_admissible(topology, horizon=horizon)
    if not report.admissible:
        detail = "; ".join(report.notes) or "see admissibility report"
        problems.append(f"switching schedule is not admissible: {detail} "
                        '(set "waive_graph_checks" to run anyway)')
    return report


def load_scenario(path) -> ScenarioConfig:
    """Read and fully validate a scenario JSON file."""
    return validate_scenario(*read_scenario(path))


def read_scenario(path):
    """The parsed JSON of a scenario file and its default name, the file's stem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc
    return data, path.stem
