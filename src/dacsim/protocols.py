"""Right-hand sides of the continuous-time average-tracking protocols.

Three variants share one proportional-integral core that steers each agent
toward its own input while a Laplacian feedback pulls neighbors together:

* dc1 -- the basic tracker, states (x, v);
* dc2 -- adds a per-agent first-order motion filter with gain theta^i(t),
  states (x, v, z), so each agent picks its own approach rate;
* dc3 -- dc2 communicating masked values z + psi(t); the common mask cancels
  through the zero-row-sum Laplacian, so a run steps dc2's dynamics.

Saturated variants clamp the applied velocity command: for dc2 only the
motion command is clamped (the information phase runs free); for dc1 the
whole x-derivative is clamped, which is exactly the configuration whose
degraded behavior the saturated comparison runs expose.

Input derivatives always come from the signal model, never from
differentiating the trajectory.  The ``*_rhs`` factories return flat-vector
closures: a dc1_sat run RK4-steps dc1_rhs, and tests step all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .signals import InputSignal, make_signal

__all__ = [
    "AgentState",
    "AlgorithmParams",
    "ThetaGain",
    "dc1_rhs",
    "dc2_rhs",
    "dc3_rhs",
    "PROTOCOL_IDS",
    "PROTOCOL_KEYS",
    "Z_STATE_PROTOCOLS",
]

# The scenario keys that some protocols read and others do not: for each
# protocol, those it requires, then those it may take.  Every protocol reads
# "params.alpha", "params.beta", "init.x0" and "init.v0"; a scenario that
# gives a key its protocol does not read is rejected.
PROTOCOL_KEYS = {
    "dc1": ((), ("step",)),
    "dc1_sat": (("params.sat_limits",), ("step",)),
    "dc2": (("params.theta",), ("step", "init.z0")),
    "dc2_sat": (("params.theta", "params.sat_limits"), ("step", "init.z0")),
    "dc3": (("params.theta",), ("step", "init.z0", "params.psi")),
    "dcdisc": (("params.delta",), ("init.z0",)),
}
PROTOCOL_IDS = tuple(PROTOCOL_KEYS)
# the continuous protocols that keep the information state z, y = (x, v, z):
# those with a motion gain theta
Z_STATE_PROTOCOLS = tuple(p for p, (required, _) in PROTOCOL_KEYS.items() if "params.theta" in required)


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
    """Per-agent motion-filter gain theta^i(t) = base^i shape(t), with its
    declared bounds.  ``shape`` is one signal of ``signals.KINDS`` for all
    agents: ``constant`` 1.0 for a fixed gain.

    The bounds are a hypothesis of the rate/saturation guarantees, not
    globally enforceable for an arbitrary shape, so they are checked
    lazily at each evaluation time.
    """

    base: np.ndarray
    shape: InputSignal
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.base, self.lower, self.upper = (np.atleast_1d(np.asarray(a, dtype=float))
                                             for a in (self.base, self.lower, self.upper))
        if np.any(self.lower <= 0):
            raise ValueError("theta lower bounds must be positive")
        if np.any(self.upper < self.lower):
            raise ValueError("theta upper bounds must dominate lower bounds")

    @classmethod
    def constant(cls, values) -> "ThetaGain":
        return cls(base=values, shape=make_signal("constant", value=1.0), lower=values, upper=values)

    def values(self, times) -> np.ndarray:
        """theta at each of the times, one row per time, in one call."""
        return self.base * self.shape.value(times)[:, None]

    def at(self, t: float) -> np.ndarray:
        th = self.values([t])
        self.check([t], th)
        return th[0]

    def check(self, times, values: np.ndarray):
        """Raise ValueError at the first of times whose row of theta's
        values leaves the declared bounds."""
        out = ((values < self.lower - 1e-12) | (values > self.upper + 1e-12)).any(axis=1)
        if out.any():
            raise ValueError(f"theta(t={times[int(out.argmax())]}) leaves its declared bounds")


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
# Flat-vector right-hand sides (what the RK4 stages consume)
#
# A closure f(t, y, u, du) takes the inputs u(t) and du/dt(t) as arguments:
# a run samples them once per block on its half-step grid and hands each
# stage its own sample.
# ---------------------------------------------------------------------------

def dc1_rhs(lap: np.ndarray, p: AlgorithmParams, saturate: bool = False):
    """f(t, y, u, du) for the basic tracker, y = (x, v) flat:
    dx = du - alpha (x - u) - beta L x - v,  dv = alpha beta L x."""
    n = lap.shape[0]
    alpha, beta = p.alpha, p.beta
    limits = _require_limits(p) if saturate else None

    def f(t, y, u, du):
        x, v = y[:n], y[n:]
        lx = lap @ x
        dx = du - alpha * (x - u) - beta * lx - v
        if limits is not None:
            dx = np.clip(dx, -limits, limits)
        return np.concatenate((dx, alpha * beta * lx))

    return f


def dc2_rhs(lap: np.ndarray, p: AlgorithmParams, saturate: bool = False,
            psi: Optional[Callable[[float], float]] = None):
    """f(t, y, u, du) for the rate-controlled tracker, y = (x, v, z) flat.

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

    def f(t, y, u, du):
        x, v, z = y[:n], y[n:2 * n], y[2 * n:]
        lz = lap @ (z + psi(t)) if psi is not None else lap @ z
        dz = du - alpha * (z - u) - beta * lz - v
        dx = -theta.at(t) * (x - z) + dz
        if limits is not None:
            dx = np.clip(dx, -limits, limits)
        return np.concatenate((dx, alpha * beta * lz, dz))

    return f


def dc3_rhs(lap: np.ndarray, p: AlgorithmParams):
    """dc2 dynamics from the messages z + psi(t), rounded as on the wire."""
    return dc2_rhs(lap, p, saturate=False, psi=p.psi if p.psi is not None else (lambda t: 0.0))
