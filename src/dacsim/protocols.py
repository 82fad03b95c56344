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
closures for the integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .signals import InputSet

__all__ = [
    "AgentState",
    "AlgorithmParams",
    "ThetaGain",
    "dc1_rhs",
    "dc2_rhs",
    "dc3_rhs",
    "init_state",
    "PROTOCOL_IDS",
    "Z_STATE_PROTOCOLS",
]

PROTOCOL_IDS = ("dc1", "dc1_sat", "dc2", "dc2_sat", "dc3", "dcdisc")
# the continuous protocols that keep the information state z, y = (x, v, z)
Z_STATE_PROTOCOLS = ("dc2", "dc2_sat", "dc3")


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
    limits, and the common transmission mask psi(t).  psi takes a time or
    an array of times, as ``InputSignal.value`` and numpy's ufuncs do; a
    run evaluates it on all its stored times in one call."""

    alpha: float
    beta: float
    theta: Optional[ThetaGain] = None
    sat_limits: Optional[np.ndarray] = None
    psi: Optional[Callable] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.sat_limits is not None:
            self.sat_limits = np.atleast_1d(np.asarray(self.sat_limits, dtype=float))
            if np.any(self.sat_limits <= 0):
                raise ValueError("saturation limits must be positive")


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
