"""Right-hand sides of the continuous-time average-tracking protocols.

Three variants share one proportional-integral core that steers each agent
toward its own input while a Laplacian feedback pulls neighbors together:

* dc1 -- the basic tracker, states (x, v);
* dc2 -- adds a per-agent first-order motion filter with gain theta^i(t),
  states (x, v, z), so each agent picks its own approach rate;
* dc3 -- dc2 communicating masked values z + psi(t); the common mask cancels
  through the zero-row-sum Laplacian and leaves the dynamics untouched.

Saturated variants clamp the applied velocity command: for dc2 only the
motion command is clamped (the information phase runs free); for dc1 the
whole x-derivative is clamped, which is exactly the configuration whose
degraded behavior the saturated comparison runs expose.

Input derivatives always come from the signal model, never from
differentiating the trajectory.  The ``*_rhs`` factories return flat-vector
closures for the integrator; the ``*_derivative`` functions are the
structured one-shot form of the same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import WeightedDigraph, laplacian
from .signals import InputSet

__all__ = [
    "AgentState",
    "AlgorithmParams",
    "ThetaGain",
    "Message",
    "dc1_rhs",
    "dc2_rhs",
    "dc3_rhs",
    "dc3_payloads",
    "dc1_derivative",
    "dc2_derivative",
    "dc3_derivative",
    "apply_saturation",
    "init_state",
    "PROTOCOL_IDS",
]

PROTOCOL_IDS = ("dc1", "dc1_sat", "dc2", "dc2_sat", "dc3", "dcdisc")


@dataclass(eq=False)
class AgentState:
    """Aggregated network state: agreement states x, integral states v, and
    (for dc2/dc3) the information states z."""

    x: np.ndarray
    v: np.ndarray
    z: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=float)
        n = self.x.shape[0]
        if self.v.shape[0] != n or (self.z is not None and self.z.shape[0] != n):
            raise ValueError("state components must have matching lengths")
        for name in ("x", "v", "z"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in state component {name}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def pack(self) -> np.ndarray:
        parts = [self.x, self.v] if self.z is None else [self.x, self.v, self.z]
        return np.concatenate(parts)

    @classmethod
    def unpack(cls, flat: np.ndarray, n: int, has_z: bool = False) -> "AgentState":
        expected = 3 * n if has_z else 2 * n
        if flat.shape[0] != expected:
            raise ValueError(f"flat state has length {flat.shape[0]}, expected {expected}")
        z = flat[2 * n:] if has_z else None
        return cls(x=flat[:n], v=flat[n:2 * n], z=z)


@dataclass(eq=False)
class ThetaGain:
    """Per-agent motion-filter gain theta^i(t) with its declared bounds.

    The bounds are a hypothesis of the rate/saturation guarantees, not
    globally enforceable for an arbitrary callable, so they are checked
    lazily at each evaluation time.
    """

    fn: Callable[[float], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if np.any(self.lower <= 0):
            raise ValueError("theta lower bounds must be positive")
        if np.any(self.upper < self.lower):
            raise ValueError("theta upper bounds must dominate lower bounds")

    @classmethod
    def constant(cls, values) -> "ThetaGain":
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(fn=_ConstantGain(vals), lower=vals, upper=vals)

    @property
    def is_constant(self) -> bool:
        """True for a gain built by ``constant``: theta(t) is the same at
        every t, so it can never leave its bounds."""
        return isinstance(self.fn, _ConstantGain)

    def at(self, t: float) -> np.ndarray:
        th = np.atleast_1d(np.asarray(self.fn(t), dtype=float))
        if np.any(th < self.lower - 1e-12) or np.any(th > self.upper + 1e-12):
            raise ValueError(f"theta(t={t}) leaves its declared bounds")
        return th


class _ConstantGain:
    """theta(t) = values for every t."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def __call__(self, t: float) -> np.ndarray:
        return self.values


@dataclass(eq=False)
class AlgorithmParams:
    """Design parameters shared by the protocol family: proportional gain
    alpha, Laplacian gain beta, optional per-agent motion gains, saturation
    limits, and the common transmission mask psi(t)."""

    alpha: float
    beta: float
    theta: Optional[ThetaGain] = None
    sat_limits: Optional[np.ndarray] = None
    psi: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.sat_limits is not None:
            self.sat_limits = np.atleast_1d(np.asarray(self.sat_limits, dtype=float))
            if np.any(self.sat_limits <= 0):
                raise ValueError("saturation limits must be positive")


@dataclass(frozen=True)
class Message:
    """One transmitted value: the sender's information state, masked when a
    psi signal is configured (payload = z + psi(t))."""

    sender: int
    payload: float


def apply_saturation(command: float, limit: float) -> float:
    """sign(command) * min(|command|, limit)."""
    if limit <= 0:
        raise ValueError("saturation limit must be positive")
    return math.copysign(min(abs(command), limit), command)


def _require_limits(p: AlgorithmParams) -> np.ndarray:
    if p.sat_limits is None:
        raise ValueError("saturated protocol needs sat_limits")
    return p.sat_limits


# ---------------------------------------------------------------------------
# Flat-vector right-hand sides (what the integrator consumes)
#
# ``inputs`` is anything with eval_all(t) -> (u, du): an InputSet evaluates
# the signals at t, an InputTable reads them from samples taken on the
# integrator's half-step grid.
# ---------------------------------------------------------------------------

def dc1_rhs(lap: np.ndarray, inputs: InputSet, p: AlgorithmParams,
            saturate: bool = False):
    """f(t, y) for the basic tracker, y = (x, v) flat:
    dx = du - alpha (x - u) - beta L x - v,  dv = alpha beta L x."""
    n = lap.shape[0]
    alpha, beta = p.alpha, p.beta
    limits = _require_limits(p) if saturate else None

    def f(t, y):
        x, v = y[:n], y[n:]
        u, du = inputs.eval_all(t)
        lx = lap @ x
        dx = du - alpha * (x - u) - beta * lx - v
        if limits is not None:
            dx = np.clip(dx, -limits, limits)
        return np.concatenate((dx, alpha * beta * lx))

    return f


def dc2_rhs(lap: np.ndarray, inputs: InputSet, p: AlgorithmParams,
            saturate: bool = False, psi: Optional[Callable[[float], float]] = None):
    """f(t, y) for the rate-controlled tracker, y = (x, v, z) flat.

    The information phase (z, v) is the dc1 core applied to z; the motion
    phase dx = -theta(t) (x - z) + dz follows at each agent's own pace.  A
    psi callable switches on masked communication (the dc3 wire format):
    the Laplacian terms are computed from z + psi(t), which changes nothing
    beyond roundoff because L has zero row sums.
    """
    n = lap.shape[0]
    alpha, beta = p.alpha, p.beta
    theta = p.theta
    if theta is None:
        raise ValueError("dc2/dc3 need a theta gain")
    limits = _require_limits(p) if saturate else None
    fixed = theta.at(0.0) if theta.is_constant else None  # checked once, not per stage

    def f(t, y):
        x, v, z = y[:n], y[n:2 * n], y[2 * n:]
        u, du = inputs.eval_all(t)
        lz = lap @ (z + psi(t)) if psi is not None else lap @ z
        dz = du - alpha * (z - u) - beta * lz - v
        dx = -(fixed if fixed is not None else theta.at(t)) * (x - z) + dz
        if limits is not None:
            dx = np.clip(dx, -limits, limits)
        return np.concatenate((dx, alpha * beta * lz, dz))

    return f


def dc3_rhs(lap: np.ndarray, inputs: InputSet, p: AlgorithmParams):
    """dc2 dynamics computed from the masked transmissions z + psi(t)."""
    return dc2_rhs(lap, inputs, p, saturate=False, psi=p.psi if p.psi is not None else (lambda t: 0.0))


def dc3_payloads(state: AgentState, t: float, p: AlgorithmParams) -> np.ndarray:
    """Values actually put on the wire at time t."""
    psi = p.psi(t) if p.psi is not None else 0.0
    return state.z + psi


# ---------------------------------------------------------------------------
# Structured one-shot derivatives (same formulas, AgentState in and out)
# ---------------------------------------------------------------------------

def _check_dims(state: AgentState, g: WeightedDigraph, inputs: InputSet, need_z: bool):
    if state.n != g.n or len(inputs) != g.n:
        raise ValueError(f"state/inputs dimension does not match digraph size {g.n}")
    if need_z and state.z is None:
        raise ValueError("this protocol needs the information state z")


def dc1_derivative(state: AgentState, t: float, g: WeightedDigraph, inputs: InputSet,
                   p: AlgorithmParams, saturate: bool = False) -> AgentState:
    _check_dims(state, g, inputs, need_z=False)
    flat = dc1_rhs(laplacian(g), inputs, p, saturate)(t, state.pack())
    return AgentState.unpack(flat, g.n)


def dc2_derivative(state: AgentState, t: float, g: WeightedDigraph, inputs: InputSet,
                   p: AlgorithmParams, saturate: bool = False) -> AgentState:
    _check_dims(state, g, inputs, need_z=True)
    flat = dc2_rhs(laplacian(g), inputs, p, saturate)(t, state.pack())
    return AgentState.unpack(flat, g.n, has_z=True)


def dc3_derivative(state: AgentState, t: float, g: WeightedDigraph, inputs: InputSet,
                   p: AlgorithmParams) -> tuple[AgentState, list[Message]]:
    _check_dims(state, g, inputs, need_z=True)
    flat = dc3_rhs(laplacian(g), inputs, p)(t, state.pack())
    payloads = dc3_payloads(state, t, p)
    messages = [Message(sender=i + 1, payload=float(payloads[i])) for i in range(state.n)]
    return AgentState.unpack(flat, g.n, has_z=True), messages


def init_state(policy: str, x0, v0=None, alpha: float = 1.0,
               with_z: bool = False) -> tuple[AgentState, float]:
    """Initialize the network state and predict the steady-state offset.

    "zero_v" starts every integral state at zero (Sum v(0) = 0, offset 0);
    "explicit" accepts any v0 and returns the offset -(1/(alpha N)) Sum v^j(0)
    that a mis-initialized run converges to.  For dc2/dc3 (``with_z``) the
    information state starts at x0.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if policy == "zero_v":
        v = np.zeros(n)
    elif policy == "explicit":
        if v0 is None:
            raise ValueError("explicit initialization needs v0")
        v = np.asarray(v0, dtype=float)
        if v.shape[0] != n:
            raise ValueError("v0 length does not match x0")
    else:
        raise ValueError(f"unknown initialization policy {policy!r}")
    offset = -float(v.sum()) / (alpha * n)
    state = AgentState(x=x0.copy(), v=v, z=x0.copy() if with_z else None)
    return state, offset
