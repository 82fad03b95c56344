"""Discrete-time tracker: the Euler form of the basic protocol with stepsize
admissibility and the semi-convergence spectral check.

The iteration never communicates the raw inputs; agents exchange the shifted
state z and publish x = z + u, which sidesteps differencing the inputs and
the one-step output delay that would come with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import WeightedDigraph, is_strongly_connected, is_weight_balanced, laplacian
from .signals import InputSet
from .protocols import AlgorithmParams

__all__ = [
    "DiscreteState",
    "StepSize",
    "SemiConvergenceReport",
    "max_stepsize",
    "make_stepsize",
    "dcdisc_system",
    "dcdisc_advance",
    "dcdisc_step",
    "zero_system_matrix",
    "pdelta_spectrum_check",
    "UNIT_CIRCLE_TOL",
]

UNIT_CIRCLE_TOL = 1e-9


@dataclass(eq=False)
class DiscreteState:
    """Iterate k of the discrete tracker: internal (z, v) plus the published
    output x_out = z + u(k)."""

    z: np.ndarray
    v: np.ndarray
    k: int
    x_out: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.x_out = np.asarray(self.x_out, dtype=float)
        if not (self.z.shape == self.v.shape == self.x_out.shape):
            raise ValueError("state components must have matching lengths")

    @classmethod
    def initial(cls, z0, v0, inputs: InputSet) -> "DiscreteState":
        z0 = np.asarray(z0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        return cls(z=z0, v=v0, k=0, x_out=z0 + inputs.values(0.0))


@dataclass(frozen=True)
class StepSize:
    """A stepsize together with the sufficient admissibility bound
    min(1/alpha, 1/(beta * d_max_out))."""

    delta: float
    bound: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("stepsize must be positive")

    @property
    def admissible(self) -> bool:
        return 0 < self.delta < self.bound


def max_stepsize(alpha: float, beta: float, d_max_out: float) -> float:
    """Largest guaranteed-convergent stepsize: min(1/alpha, 1/(beta d_max_out))."""
    if alpha <= 0 or beta <= 0 or d_max_out <= 0:
        raise ValueError("alpha, beta, d_max_out must all be positive")
    return min(1.0 / alpha, 1.0 / (beta * d_max_out))


def make_stepsize(delta: float, alpha: float, beta: float, d_max_out: float) -> StepSize:
    """Package delta with its bound; inadmissibility warns instead of raising
    because the bound is sufficient, not necessary."""
    ss = StepSize(delta=delta, bound=max_stepsize(alpha, beta, d_max_out))
    if not ss.admissible:
        warnings.warn(
            f"stepsize {delta} is not below the admissibility bound {ss.bound:.6g}; "
            "convergence is no longer guaranteed",
            stacklevel=2,
        )
    return ss


def dcdisc_system(lap: np.ndarray, alpha: float, beta: float, d: float) -> np.ndarray:
    """The (2n x 3n) increment matrix M = [d A | d [-beta L; alpha beta L]]
    of one iteration, with A = ``zero_system_matrix``: the iterate
    (z, v) moves by M (z, v, u(k delta)).  I + d A is the P_delta that
    ``pdelta_spectrum_check`` classifies."""
    feed = np.vstack((-beta * lap, alpha * beta * lap))
    return d * np.hstack((zero_system_matrix(lap, alpha, beta), feed))


def dcdisc_advance(m: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One iteration in increment form, y_{k+1} = y_k + M (z_k, v_k, u_k):
    ``row`` is (z_k, v_k, u(k delta)), M is ``dcdisc_system``'s, and
    y_{k+1} = (z_{k+1}, v_{k+1}) is written to ``out`` and returned.  One
    matrix-vector product and one add give, up to roundoff, the update

    z+ = z - delta alpha z - delta beta L (z + u(k)) - delta v
    v+ = v + delta alpha beta L (z + u(k))

    The v increment sums to 0 over the agents up to roundoff, so sum(v) is
    conserved, and delta = 0 adds exactly 0."""
    return np.add(row[:m.shape[0]], m @ row, out=out)


def dcdisc_step(s: DiscreteState, g: WeightedDigraph, inputs: InputSet,
                p: AlgorithmParams, delta: StepSize | float) -> DiscreteState:
    """One iteration with u sampled at t = k delta, and the published output
    x_out+ = z+ + u(k+1).  It runs ``dcdisc_advance`` on the matrix
    ``simulate_discrete`` builds, so a run equals repeated steps bit for bit."""
    d = delta.delta if isinstance(delta, StepSize) else float(delta)
    if d < 0:
        raise ValueError("stepsize must be nonnegative")
    if s.z.shape[0] != g.n or len(inputs) != g.n:
        raise ValueError(f"state/inputs dimension does not match digraph size {g.n}")
    u = inputs.values(np.array([s.k, s.k + 1]) * d)
    m = dcdisc_system(laplacian(g), p.alpha, p.beta, d)
    y = dcdisc_advance(m, np.concatenate((s.z, s.v, u[0])), np.empty(2 * g.n))
    return DiscreteState(z=y[:g.n], v=y[g.n:], k=s.k + 1, x_out=y[:g.n] + u[1])


def zero_system_matrix(lap: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Block matrix A of the homogeneous dynamics d/dt (y, w) = A (y, w):
    [[-alpha I - beta L, -I], [alpha beta L, 0]]."""
    n = lap.shape[0]
    eye = np.eye(n)
    return np.block([
        [-alpha * eye - beta * lap, -eye],
        [alpha * beta * lap, np.zeros((n, n))],
    ])


@dataclass(frozen=True, eq=False)
class SemiConvergenceReport:
    """Spectrum classification of the one-step matrix P = I + delta A.

    Powers of P converge iff exactly one eigenvalue sits on the unit circle
    (the structural one at 1) and all others lie strictly inside.
    """

    eigenvalues: np.ndarray
    unit_eigenvalue_count: int
    max_other_modulus: float
    semi_convergent: bool
    hypothesis_violation: Optional[str] = None


def pdelta_spectrum_check(g: WeightedDigraph, alpha: float, beta: float,
                          delta: float) -> SemiConvergenceReport:
    """Build P = I + delta A for the zero system and classify its spectrum.

    Moduli within 1e-9 of 1 count as on the unit circle.  The strong
    connectivity / weight balance hypotheses are reported, not enforced.
    """
    if delta <= 0:
        raise ValueError("stepsize must be positive")
    violation = None
    if not is_weight_balanced(g):
        violation = "digraph is not weight-balanced"
    elif not is_strongly_connected(g):
        violation = "digraph is not strongly connected"
    p_delta = np.eye(2 * g.n) + delta * zero_system_matrix(laplacian(g), alpha, beta)
    eig = np.linalg.eigvals(p_delta)
    moduli = np.abs(eig)
    on_circle = np.abs(moduli - 1.0) <= UNIT_CIRCLE_TOL
    others = moduli[~on_circle]
    max_other = float(others.max()) if others.size else 0.0
    semi = bool(on_circle.sum() == 1 and max_other < 1.0 - UNIT_CIRCLE_TOL)
    return SemiConvergenceReport(
        eigenvalues=eig,
        unit_eigenvalue_count=int(on_circle.sum()),
        max_other_modulus=max_other,
        semi_convergent=semi,
        hypothesis_violation=violation,
    )
