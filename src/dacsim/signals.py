"""Per-agent reference inputs u^i(t), their derivatives, and the input
statistics (disagreement gamma, per-agent derivative sup) that feed the
error bounds.

Signals are small kind+params records compiled at construction to numpy
closures that evaluate a whole array of times in one call.  Piecewise
signals evaluate right-continuously at breakpoints and report the right-hand
derivative there, matching the switching-signal convention used elsewhere in
the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InputSignal",
    "InputSet",
    "InputTable",
    "SignalStats",
    "make_signal",
    "signal_from_json",
    "signal_to_json",
    "eval_input",
    "network_average",
    "disagreement_gamma",
    "discrete_disagreement_gamma",
    "pi_udot_series",
    "pi_norms",
    "sampled_gamma",
    "preset_scenario",
    "SCENARIO_PRESETS",
]

SIGNAL_KINDS = (
    "constant",
    "linear",
    "sine",
    "cosine",
    "atan",
    "tanh",
    "reciprocal-power",
    "exponential-decay",
    "step-modulated-composite",
    "sampled-piecewise-constant",
    "sum-of-terms",
)

# Sample differences per block in sampled_gamma.  One whole-run
# np.diff and its norm temporaries raised peak RSS from 47.9 to 55.2 MB on a
# 10 000-step, 40-agent dcdisc run; the blocks keep it at the former.
GAMMA_BLOCK = 256

# Bias terms of the six monitoring agents in the sampled-process preset.
SAMPLED_BIASES = (-0.55, 1.0, 0.6, -0.9, -0.6, 0.4)


@dataclass
class InputSignal:
    """One reference input: a signal kind, its parameters, and how the
    derivative is produced (closed form, or central differences with step h_d).

    ``value`` and ``derivative`` take a time or an array of times; a scalar
    time gives a float, an array gives an array of the same shape.
    """

    kind: str
    params: dict
    derivative_mode: str = "analytic"
    h_d: float = 1e-6
    _vfn: object = field(default=None, repr=False, compare=False)
    _dfn: object = field(default=None, repr=False, compare=False)
    _terms: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.derivative_mode not in ("analytic", "central_difference"):
            raise ValueError(f"unknown derivative mode {self.derivative_mode!r}")
        if self.h_d <= 0:
            raise ValueError("central-difference step h_d must be positive")
        if self.kind == "sum-of-terms":
            self._terms = tuple(_as_signal(term) for term in self.params.get("terms", []))
        self._vfn, self._dfn = _compile(self.kind, self.params, self._terms)
        if self.derivative_mode == "central_difference":
            self._dfn = _central_difference(self._vfn, self.h_d)

    def value(self, t):
        return _scalar_or_array(self._vfn(np.asarray(t, dtype=float)))

    def derivative(self, t):
        return _scalar_or_array(self._dfn(np.asarray(t, dtype=float)))


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _central_difference(vfn, h):
    """Central difference with step h, one-sided at t < h so that no sample
    falls before t = 0."""

    def dfn(t):
        lo = np.maximum(t - h, 0.0)
        return (vfn(t + h) - vfn(lo)) / (t + h - lo)

    return dfn


def _part(sig: InputSignal, derivative: bool):
    """What ``sig`` adds to a sum, or gives as a column: the number of a
    term that is constant in t (a constant's value, 0.0 for its analytic
    derivative), else the closure that evaluates it."""
    if sig.kind == "constant" and not (derivative and sig.derivative_mode != "analytic"):
        return 0.0 if derivative else float(sig.params["value"])
    return sig._dfn if derivative else sig._vfn


def _add(parts, t, shared=()):
    """The parts of a sum added in order from 0, as ``sum()`` does, so a
    -0.0 term gives +0.0.  A part is a number, a closure, or the index of
    an array in ``shared``; the total is a number when every part is."""
    total = 0.0
    for part in parts:
        if isinstance(part, int):
            part = shared[part]
        elif callable(part):
            part = part(t)
        total += part  # in place from the second array on: the first add made a new one
    return total


def make_signal(kind: str, derivative_mode: str = "analytic", h_d: float = 1e-6, **params) -> InputSignal:
    return InputSignal(kind=kind, params=params, derivative_mode=derivative_mode, h_d=h_d)


def _compile(kind, params, terms=()):
    """Build (value, derivative) closures for a signal record; ``terms`` are
    a sum-of-terms' term signals.  Both take a float ndarray of times (0-d
    included) and return values of its shape.  A sum adds its terms in
    order from 0 (``_add``), a constant term as a number."""
    p = dict(params)

    def need(*names):
        missing = [n for n in names if n not in p]
        if missing:
            raise ValueError(f"signal kind {kind!r} is missing parameter(s) {missing}")
        return [float(p[n]) for n in names]

    def fill(c):
        return lambda t: np.full(np.shape(t), c)

    if kind == "constant":
        (c,) = need("value")
        return fill(c), fill(0.0)

    if kind == "linear":
        a = float(p.get("slope", 0.0))
        b = float(p.get("intercept", 0.0))
        return (lambda t: a * t + b), fill(a)

    if kind in ("sine", "cosine"):
        amp = float(p.get("amplitude", 1.0))
        freq = float(p.get("frequency", 1.0))
        phase = float(p.get("phase", 0.0))
        if kind == "sine":
            return (
                lambda t: amp * np.sin(freq * t + phase),
                lambda t: amp * freq * np.cos(freq * t + phase),
            )
        return (
            lambda t: amp * np.cos(freq * t + phase),
            lambda t: -amp * freq * np.sin(freq * t + phase),
        )

    if kind == "atan":
        amp = float(p.get("amplitude", 1.0))
        rate = float(p.get("rate", 1.0))
        shift = float(p.get("shift", 0.0))
        return (
            lambda t: amp * np.arctan(rate * t + shift),
            lambda t: amp * rate / (1.0 + (rate * t + shift) ** 2),
        )

    if kind == "tanh":
        amp = float(p.get("amplitude", 1.0))
        rate = float(p.get("rate", 1.0))
        shift = float(p.get("shift", 0.0))

        def tanh_d(t):
            th = np.tanh(rate * t + shift)
            return amp * rate * (1.0 - th * th)

        return (lambda t: amp * np.tanh(rate * t + shift)), tanh_d

    if kind == "reciprocal-power":
        coeff, shift = need("coefficient", "shift")
        power = float(p.get("power", 1.0))
        return (
            lambda t: coeff * (t + shift) ** -power,
            lambda t: -coeff * power * (t + shift) ** -(power + 1.0),
        )

    if kind == "exponential-decay":
        (coeff,) = need("coefficient")
        rate = float(p.get("rate", 1.0))
        return (
            lambda t: coeff * np.exp(-rate * t),
            lambda t: -coeff * rate * np.exp(-rate * t),
        )

    if kind == "sum-of-terms":
        if not terms:
            raise ValueError("sum-of-terms needs at least one term")

        def summed(parts):
            def fn(t):
                total = _add(parts, t)
                return np.full(np.shape(t), total) if isinstance(total, float) else total
            return fn

        # each term's derivative in its own derivative mode
        return summed([_part(s, False) for s in terms]), summed([_part(s, True) for s in terms])

    if kind == "step-modulated-composite":
        carrier = _as_signal(p["carrier"]) if "carrier" in p else None
        if carrier is None:
            raise ValueError("step-modulated-composite needs a carrier signal")
        half_period = float(p.get("half_period", 10.0))
        if half_period <= 0:
            raise ValueError("half_period must be positive")
        cv, cd = carrier._vfn, carrier._dfn

        # Square gate from alternating unit steps: 1 on [0, hp), 0 on [hp, 2hp), ...
        # H(0) = 1, so the gate is right-continuous and its right-derivative is 0.
        def gate(t):
            return np.where(np.floor(t / half_period) % 2 == 0, 1.0, 0.0)

        return (lambda t: gate(t) * cv(t)), (lambda t: gate(t) * cd(t))

    if kind == "sampled-piecewise-constant":
        values = np.array([float(v) for v in p.get("values", [])])
        if not values.size:
            raise ValueError("sampled-piecewise-constant needs a nonempty value list")
        hold = float(p.get("hold", 1.0))
        if hold <= 0:
            raise ValueError("hold duration must be positive")
        last = values.size - 1

        def held(t):
            return values[np.minimum(np.floor(t / hold), last).astype(np.intp)]

        return held, fill(0.0)

    raise ValueError(f"unknown signal kind {kind!r}")


def _as_signal(spec) -> InputSignal:
    if isinstance(spec, InputSignal):
        return spec
    if isinstance(spec, dict):
        return signal_from_json(spec)
    raise ValueError(f"cannot interpret {spec!r} as a signal")


def signal_from_json(fragment: dict) -> InputSignal:
    """Build a signal from {"kind": ..., "params": {...}}; nested signals
    (sum terms, carriers) use the same schema."""
    if "kind" not in fragment:
        raise ValueError('signal JSON needs a "kind" key')
    extra = set(fragment) - {"kind", "params", "derivative_mode", "h_d"}
    if extra:
        raise ValueError(f"unknown signal key(s) {sorted(extra)}")
    return InputSignal(
        kind=fragment["kind"],
        params=dict(fragment.get("params", {})),
        derivative_mode=fragment.get("derivative_mode", "analytic"),
        h_d=float(fragment.get("h_d", 1e-6)),
    )


def signal_to_json(sig: InputSignal) -> dict:
    def encode(value):
        if isinstance(value, InputSignal):
            return signal_to_json(value)
        if isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        return value

    out = {"kind": sig.kind, "params": {k: encode(v) for k, v in sig.params.items()}}
    if sig.derivative_mode != "analytic":
        out["derivative_mode"] = sig.derivative_mode
        out["h_d"] = sig.h_d
    return out


def eval_input(sig: InputSignal, t: float) -> tuple[float, float]:
    """Value and derivative of one input at time t >= 0."""
    if t < 0:
        raise ValueError("input signals are defined for t >= 0 only")
    return sig.value(t), sig.derivative(t)


@dataclass
class InputSet:
    """Ordered inputs of the whole network, one signal per agent.

    ``values`` and ``derivatives`` take a time, giving shape (n,), or an
    array of times, giving shape (len(t), n) with one row per time.

    One call evaluates each distinct term once: a sum-of-terms term that
    two or more terms of the set share, by equal ``signal_to_json`` forms
    (one object or equal dicts), is evaluated into one array that every
    sum holding it adds.  A term that appears once is evaluated where it is
    added, and a constant term is added as a number.  Each column is still
    its signal's sum, term by term from 0, so the values equal the
    signals' own ``value`` and ``derivative`` bit for bit.
    """

    signals: tuple
    meta: dict = field(default_factory=dict, compare=False)
    _plans: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.signals = tuple(self.signals)
        if not self.signals:
            raise ValueError("input set must contain at least one signal")
        self._plans = _plan(self.signals, False), _plan(self.signals, True)

    def __len__(self):
        return len(self.signals)

    def values(self, t, out=None) -> np.ndarray:
        """u at t; ``out``, of shape t.shape + (n,), may be a view into a
        larger buffer that receives the columns."""
        return self._columns(self._plans[0], t, out)

    def derivatives(self, t) -> np.ndarray:
        return self._columns(self._plans[1], t)

    def eval_all(self, t) -> tuple[np.ndarray, np.ndarray]:
        return self.values(t), self.derivatives(t)

    @staticmethod
    def _columns(plan, t, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("input signals are defined for t >= 0 only")
        shared, columns = plan
        if out is None:
            out = np.empty(t.shape + (len(columns),))
        arrays = [f(t) for f in shared]
        for i, (summed, part) in enumerate(columns):  # one column at a time: no second full-size copy
            if summed:
                out[..., i] = _add(part, t, arrays)
            else:
                out[..., i] = part(t) if callable(part) else part
        return out


def _plan(signals, derivative):
    """(shared, columns): how ``InputSet`` evaluates the values, or the
    derivatives, of ``signals``.  A column is (True, parts) for a
    sum-of-terms, whose parts ``_add`` adds, or (False, part) for any other
    signal and for a sum's central-difference derivative.  A term whose
    ``signal_to_json`` form two or more terms share has its closure in
    ``shared`` once, and each of its parts is that closure's index."""
    columns, uses = [], {}
    for sig in signals:
        if not sig._terms or (derivative and sig.derivative_mode != "analytic"):
            columns.append((False, _part(sig, derivative)))
            continue
        parts = [_part(term, derivative) for term in sig._terms]
        for k, (part, term) in enumerate(zip(parts, sig._terms)):
            key = _term_key(term) if callable(part) else None
            if key is not None:
                uses.setdefault(key, []).append((parts, k))
        columns.append((True, parts))
    shared = []
    for places in uses.values():
        if len(places) > 1:
            parts, k = places[0]
            shared.append(parts[k])
            for parts, k in places:
                parts[k] = len(shared) - 1
    return shared, columns


def _term_key(sig):
    """A term's ``signal_to_json`` form as text; None, never shared, when a
    parameter is not JSON (an ndarray of samples, say)."""
    try:
        return json.dumps(signal_to_json(sig), sort_keys=True)
    except TypeError:
        return None


@dataclass(frozen=True, eq=False)
class InputTable:
    """u and its derivative sampled once at the grid times t_j = j * dt.
    ``eval_all`` looks a grid time up by index, so a right-hand side built on
    a table reads the inputs without evaluating them; a time off the grid is
    an error."""

    dt: float
    u: np.ndarray
    du: np.ndarray

    @classmethod
    def sample(cls, inputs: InputSet, times, dt: float) -> "InputTable":
        """Sample ``inputs`` at ``times``, which must be (to roundoff) j * dt."""
        u, du = inputs.eval_all(times)
        return cls(dt=dt, u=u, du=du)

    def eval_all(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        j = round(t / self.dt)
        if not 0 <= j < self.u.shape[0] or abs(t - j * self.dt) > 1e-3 * self.dt:
            raise ValueError(f"t={t} is not a sample time of the input table")
        return self.u[j], self.du[j]


@dataclass(frozen=True, eq=False)
class SignalStats:
    """Grid estimates of the input-derivative statistics: gamma is the sup of
    the disagreement norm ||u_dot - mean(u_dot) 1||, mu the per-agent sup of
    |u_dot^i|."""

    gamma: float
    mu: np.ndarray
    grid: np.ndarray


def network_average(inputs: InputSet, t: float) -> tuple[float, float]:
    """Mean input value and mean input derivative across the network."""
    u, du = inputs.eval_all(t)
    return float(u.mean()), float(du.mean())


def pi_norms(d: np.ndarray) -> np.ndarray:
    """||Pi_N d|| of every row of d: the norm of the row minus its mean, the
    disagreement part of a network-wide vector."""
    return np.linalg.norm(d - d.mean(axis=1, keepdims=True), axis=1)


def sampled_gamma(u: np.ndarray) -> float:
    """Sup over k of ||Pi_N (u[k+1] - u[k])|| for the rows u[k] of input
    samples, GAMMA_BLOCK differences at a time; 0 for a single row."""
    gamma = 0.0
    for a in range(0, len(u) - 1, GAMMA_BLOCK):  # blocks bound the temporaries
        gamma = max(gamma, float(pi_norms(np.diff(u[a:a + GAMMA_BLOCK + 1], axis=0)).max()))
    return gamma


def pi_udot_series(inputs: InputSet, grid) -> tuple[np.ndarray, np.ndarray]:
    """(||Pi_N u_dot(t)|| per grid point, per-agent |u_dot| sup).  One pass
    serves the tracking-bound quadrature and the gamma/mu statistics."""
    du = inputs.derivatives(np.asarray(grid, dtype=float))
    return pi_norms(du), np.abs(du).max(axis=0)


def disagreement_gamma(inputs: InputSet, grid) -> SignalStats:
    """Sup over the grid of the projected derivative norm, plus per-agent sups.

    This is a grid estimate of an essential supremum; resolution is the
    caller's responsibility (the simulation grid is the intended choice).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    series, mu = pi_udot_series(inputs, grid)
    return SignalStats(gamma=float(series.max()), mu=mu, grid=grid)


def discrete_disagreement_gamma(inputs: InputSet, delta: float, num_steps: int) -> float:
    """Sup over k of ||Pi_N (u(k+1) - u(k))|| with samples at t = k*delta."""
    if delta <= 0 or num_steps < 1:
        raise ValueError("need delta > 0 and at least one step")
    return sampled_gamma(inputs.values(np.arange(num_steps + 1) * delta))


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------

SCENARIO_PRESETS = ("case1", "case2", "sampled_bias", "saturation")


def _sum(*terms):
    return make_signal("sum-of-terms", terms=list(terms))


def _case1_signals():
    common = make_signal("sine", amplitude=5.0, frequency=1.0)
    return (
        _sum(common, make_signal("reciprocal-power", coefficient=1.0, shift=2.0, power=1.0),
             make_signal("constant", value=3.0)),
        _sum(common, make_signal("reciprocal-power", coefficient=1.0, shift=2.0, power=2.0),
             make_signal("constant", value=4.0)),
        _sum(common, make_signal("reciprocal-power", coefficient=1.0, shift=2.0, power=3.0),
             make_signal("constant", value=5.0)),
        _sum(common, make_signal("exponential-decay", coefficient=10.0, rate=1.0),
             make_signal("constant", value=4.0)),
        _sum(common, make_signal("atan"), make_signal("constant", value=-1.5)),
        _sum(common, make_signal("tanh", amplitude=-1.0), make_signal("constant", value=1.0)),
    )


def _case2_signals():
    return (
        make_signal("sine", amplitude=0.55, frequency=0.8),
        _sum(make_signal("sine", amplitude=0.5, frequency=0.7),
             make_signal("cosine", amplitude=0.5, frequency=0.6)),
        make_signal("linear", slope=0.1),
        make_signal("atan", rate=0.5),
        make_signal("cosine", amplitude=0.1, frequency=2.0),
        make_signal("sine", amplitude=0.5, frequency=0.5),
    )


def _saturation_signals():
    half = 10.0

    def gated(carrier):
        return make_signal("step-modulated-composite", carrier=carrier, half_period=half)

    return (
        gated(_sum(make_signal("cosine", amplitude=4.0, frequency=0.5), make_signal("constant", value=10.0))),
        gated(_sum(make_signal("tanh", amplitude=4.0, shift=-5.0), make_signal("tanh", amplitude=4.0, shift=-25.0),
                   make_signal("constant", value=5.0))),
        gated(_sum(make_signal("sine", amplitude=4.0, frequency=0.5, phase=1.0), make_signal("constant", value=8.0))),
        gated(_sum(make_signal("atan", amplitude=4.0, rate=0.5, shift=-5.0), make_signal("constant", value=-6.0))),
        gated(_sum(make_signal("sine", amplitude=1.0, frequency=2.0), make_signal("constant", value=-5.0))),
        gated(_sum(make_signal("cosine", amplitude=4.0, frequency=0.5), make_signal("constant", value=7.0))),
    )


def _box_muller(rng) -> float:
    u1, u2 = rng.random(), rng.random()
    while u1 <= 0.0:  # guard the log
        u1 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _sampled_bias_signals(seed: int, n_samples: int = 64, hold: float = 2.0):
    """Synchronously sampled process 2 + sin(w_m t_m + phi_m) plus per-agent
    static biases, held constant between the 0.5 Hz sampling instants.

    Draw order per sample m: frequency w_m first, then phase phi_m, each via
    Box-Muller from two uniform draws of a PCG64 generator seeded with `seed`.
    """
    rng = np.random.default_rng(seed)
    common = []
    for m in range(n_samples):
        w = 0.5 * _box_muller(rng)            # N(0, 0.25)
        phi = (math.pi / 2.0) * _box_muller(rng)  # N(0, (pi/2)^2)
        common.append(2.0 + math.sin(w * (m * hold) + phi))
    return tuple(
        make_signal("sampled-piecewise-constant", values=[c + b for c in common], hold=hold)
        for b in SAMPLED_BIASES
    )


def preset_scenario(name: str, seed: int = 0) -> InputSet:
    """Bundled six-agent input sets; only "sampled_bias" consumes the seed."""
    if name == "case1":
        signals = _case1_signals()
    elif name == "case2":
        signals = _case2_signals()
    elif name == "sampled_bias":
        signals = _sampled_bias_signals(seed)
    elif name == "saturation":
        signals = _saturation_signals()
    else:
        raise ValueError(f"unknown scenario preset {name!r}; choose from {', '.join(SCENARIO_PRESETS)}")
    return InputSet(signals=signals, meta={"preset": name, "seed": seed})
