"""Closed-form performance guarantees of the tracker family, evaluated
numerically for comparison against simulated trajectories.

Everything here is a scalar envelope: the zero-system equilibrium offset, the
transient envelope s(t), the full tracking-error bound (s(t) plus a fading
convolution of the input-derivative disagreement), the ultimate bounds, decay
rates, and the zero-steady-state-error input-class tests.  In switching mode
the connectivity constant lambda_hat_2 is replaced by a user-supplied
lambda_hat_sigma and the terms that come from the consensus-subspace
transition matrix pick up the user's overshoot constant kappa; no constructive
recipe exists for those two numbers, so callers must treat the defaults
(kappa=1, smallest lambda_hat_2 among active digraphs) as a labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "ZeroErrorCheck",
    "zero_system_equilibrium",
    "transient_bound_s",
    "tracking_bound",
    "tracking_bound_curve",
    "ultimate_bound",
    "convergence_rate",
    "zero_error_class_check",
    "project_disagreement",
]

CONFLUENT_REL_TOL = 1e-9


def project_disagreement(vec: np.ndarray) -> np.ndarray:
    """Remove the consensus component: v - mean(v) * 1."""
    vec = np.asarray(vec, dtype=float)
    return vec - vec.mean()


@dataclass
class BoundInputs:
    """Everything the scalar envelopes need.

    y0_norm and w0_norm are the norms of the shifted initial condition
    (x(0) - avg u(0) 1  and  v(0) - Pi_N(du(0) + alpha u(0))); gamma is the
    sup of the projected input-derivative norm.  kappa / lambda_hat_sigma
    switch the envelopes into switching-topology mode.
    """

    alpha: float
    beta: float
    lambda_hat_2: float
    y0_norm: float
    w0_norm: float
    udot0_norm: float = 0.0
    gamma: float = 0.0
    re_lambda_2: Optional[float] = None
    kappa: Optional[float] = None
    lambda_hat_sigma: Optional[float] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.lambda_hat_2 <= 0:
            raise ValueError("lambda_hat_2 must be positive (strongly connected, weight-balanced)")
        for name in ("y0_norm", "w0_norm", "udot0_norm", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if (self.kappa is None) != (self.lambda_hat_sigma is None):
            raise ValueError("switching mode needs both kappa and lambda_hat_sigma")
        if self.kappa is not None and (self.kappa <= 0 or self.lambda_hat_sigma <= 0):
            raise ValueError("kappa and lambda_hat_sigma must be positive")

    @property
    def effective_lambda_hat(self) -> float:
        return self.lambda_hat_2 if self.lambda_hat_sigma is None else self.lambda_hat_sigma

    @property
    def effective_kappa(self) -> float:
        return 1.0 if self.kappa is None else self.kappa

    @classmethod
    def from_initial(cls, x0, v0, u0, du0, alpha, beta, lambda_hat_2, gamma=0.0,
                     re_lambda_2=None, kappa=None, lambda_hat_sigma=None) -> "BoundInputs":
        """Build the norms from raw initial data."""
        x0 = np.asarray(x0, dtype=float)
        u0 = np.asarray(u0, dtype=float)
        du0 = np.asarray(du0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        y0 = x0 - u0.mean()
        w0 = v0 - project_disagreement(du0 + alpha * u0)
        return cls(alpha=alpha, beta=beta, lambda_hat_2=lambda_hat_2,
                   y0_norm=float(np.linalg.norm(y0)), w0_norm=float(np.linalg.norm(w0)),
                   udot0_norm=float(np.linalg.norm(du0)), gamma=gamma,
                   re_lambda_2=re_lambda_2, kappa=kappa, lambda_hat_sigma=lambda_hat_sigma)


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """A nonnegative envelope sampled on a time grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("bound curves must be finite and nonnegative")


def zero_system_equilibrium(v0_or_w0, alpha: float) -> tuple[float, float]:
    """Limits of the homogeneous dynamics: every shifted agreement state goes
    to -(1/(alpha N)) Sum w^j(0) and every integral state to the mean of w(0)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w0 = np.asarray(v0_or_w0, dtype=float)
    if w0.size == 0:
        raise ValueError("need at least one agent")
    total = float(w0.sum())
    return -total / (alpha * w0.size), total / w0.size


def _branch_factor(t, alpha: float, blam: float, kappa: float):
    """The confluent-aware transient factor multiplying (alpha ||y0|| + ||w0||)
    in s(t) and ||du(0)|| in the tracking bound; t is a float or an array."""
    if abs(alpha - blam) < CONFLUENT_REL_TOL * alpha:
        return kappa * t * np.exp(-blam * t)
    return kappa * (np.exp(-alpha * t) - np.exp(-blam * t)) / (blam - alpha)


def transient_bound_s(t, b: BoundInputs):
    """Envelope of the shifted homogeneous state:

    s(t) = (e^{-alpha t} + kappa e^{-beta lam t}) ||y0||
           + e^{-alpha t} ||w0|| / alpha
           + branch(t) (alpha ||y0|| + ||w0||),

    where branch(t) is (beta lam - alpha)^{-1}(e^{-alpha t} - e^{-beta lam t})
    away from the confluent point alpha = beta lam and t e^{-beta lam t} at it.
    kappa and lam come from the switching fields when present.  A scalar t
    gives a float, an array of times an array.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    alpha = b.alpha
    blam = b.beta * b.effective_lambda_hat
    kappa = b.effective_kappa
    ea = np.exp(-alpha * t)
    eb = np.exp(-blam * t)
    s = (ea + kappa * eb) * b.y0_norm + ea * b.w0_norm / alpha
    s = s + _branch_factor(t, alpha, blam, kappa) * (alpha * b.y0_norm + b.w0_norm)
    return float(s) if t.ndim == 0 else s


def tracking_bound(t: float, b: BoundInputs,
                   pi_udot_norm: Callable[[float], float],
                   quad_step: float = 1e-3) -> float:
    """Tracking-error envelope at time t:

    s(t) + int_0^t e^{-beta lam (t - tau)} ||Pi_N du(tau)|| dtau
         + branch(t) ||du(0)||,

    with the integral by composite trapezoid at roughly ``quad_step``
    resolution (the integrand is smooth between input breakpoints).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return transient_bound_s(0.0, b)
    num = max(2, int(math.ceil(t / quad_step)) + 1)
    grid = np.linspace(0.0, t, num)
    samples = np.array([pi_udot_norm(float(tau)) for tau in grid])
    curve = tracking_bound_curve(grid, b, samples)
    return float(curve.values[-1])


def tracking_bound_curve(grid, b: BoundInputs, pi_udot_samples) -> BoundCurve:
    """tracking_bound evaluated at every grid point in one O(len(grid)) sweep.

    The fading-memory integral obeys
    I(t_{k+1}) = e^{-beta lam h} I(t_k) + trapezoid over [t_k, t_{k+1}],
    which reproduces the composite trapezoid rule on the full grid exactly.
    """
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(pi_udot_samples, dtype=float)
    if grid.ndim != 1 or grid.shape != f.shape:
        raise ValueError("grid and samples must be matching 1-D arrays")
    if grid.size and grid[0] < 0:
        raise ValueError("grid must start at t >= 0")
    blam = b.beta * b.effective_lambda_hat
    kappa = b.effective_kappa
    h = np.diff(grid)
    decay = np.exp(-blam * h)
    trapezoids = 0.5 * h * (decay * f[:-1] + f[1:])
    integral = np.zeros_like(grid)
    acc = 0.0
    for k, (dec, inc) in enumerate(zip(decay.tolist(), trapezoids.tolist()), start=1):
        acc = dec * acc + inc
        integral[k] = acc
    values = (transient_bound_s(grid, b) + kappa * integral
              + _branch_factor(grid, b.alpha, blam, kappa) * b.udot0_norm)
    return BoundCurve(grid=grid, values=values)


def ultimate_bound(beta: float, lambda_hat_2: float, gamma: float,
                   delta: Optional[float] = None) -> float:
    """Steady-state tracking-error cap gamma / (beta lambda_hat_2); the
    discrete algorithm divides by delta as well."""
    if beta <= 0 or lambda_hat_2 <= 0:
        raise ValueError("beta and lambda_hat_2 must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if delta is None:
        return gamma / (beta * lambda_hat_2)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return gamma / (delta * beta * lambda_hat_2)


def convergence_rate(alpha: float, beta: float, re_lambda_2: float,
                     lambda_hat_2: float,
                     theta_min: Optional[float] = None) -> tuple[float, float]:
    """(ode_rate, bound_rate): the eigenvalue decay rate min(alpha,
    beta Re(lambda_2)) and the envelope decay rate min(alpha,
    beta lambda_hat_2); a motion-filter floor theta_min caps both."""
    if min(alpha, beta, re_lambda_2, lambda_hat_2) <= 0:
        raise ValueError("all rate arguments must be positive")
    ode_rate = min(alpha, beta * re_lambda_2)
    bound_rate = min(alpha, beta * lambda_hat_2)
    if theta_min is not None:
        if theta_min <= 0:
            raise ValueError("theta_min must be positive")
        ode_rate = min(ode_rate, theta_min)
        bound_rate = min(bound_rate, theta_min)
    return ode_rate, bound_rate


@dataclass(frozen=True)
class ZeroErrorCheck:
    """Numeric verdicts for the zero-steady-state-error input classes.

    Condition (a): du^i + alpha u^i approaches a common function.
    Condition (b): ddu^i + alpha du^i approaches a common function.
    A condition "holds" when the max pairwise spread either ends below the
    tolerance or at least halves across the inspected grid.  These are grid
    observations, not proofs.
    """

    holds_a: bool
    holds_b: bool
    spread_a: tuple
    spread_b: tuple
    tol: float
    evidence: str = "numeric evidence"


def _spread_verdict(spreads: np.ndarray, tol: float) -> tuple[bool, tuple]:
    head = float(np.mean(spreads[: max(1, spreads.size // 10)]))
    tail = float(np.mean(spreads[-max(1, spreads.size // 10):]))
    holds = tail <= tol or tail <= 0.5 * max(head, tol)
    return holds, (head, tail)


def zero_error_class_check(inputs, alpha: float, grid, delta: Optional[float] = None,
                           tol: float = 1e-3, h_dd: float = 1e-4) -> ZeroErrorCheck:
    """Test both zero-error input classes on a (tail) grid.

    Continuous mode differences the modeled derivative to get ddu.  With
    ``delta`` the discrete analogues are tested instead, on samples
    u(k delta) covering the same span: Delta u + delta alpha u  and
    Delta u(k+1) - Delta u(k) + delta alpha Delta u(k).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 10:
        raise ValueError("grid too short for a trend verdict (need >= 10 points)")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    if delta is None:
        u, du = inputs.eval_all(grid)
        lo = np.maximum(grid - h_dd, 0.0)
        ddu = (inputs.derivatives(grid + h_dd) - inputs.derivatives(lo)) / (grid + h_dd - lo)[:, None]
        ea = du + alpha * u
        eb = ddu + alpha * du
    else:
        if delta <= 0:
            raise ValueError("delta must be positive")
        k_lo = int(math.floor(grid[0] / delta))
        k_hi = int(math.floor(grid[-1] / delta))
        if k_hi - k_lo < 10:
            raise ValueError("grid span too short for the discrete check")
        u = inputs.values(np.arange(k_lo, k_hi + 3) * delta)
        dif = np.diff(u, axis=0)
        ea = dif[:-1] + delta * alpha * u[:-2]
        eb = dif[1:] - dif[:-1] + delta * alpha * dif[:-1]
    spread_a = ea.max(axis=1) - ea.min(axis=1)
    spread_b = eb.max(axis=1) - eb.min(axis=1)

    holds_a, span_a = _spread_verdict(spread_a, tol)
    holds_b, span_b = _spread_verdict(spread_b, tol)
    return ZeroErrorCheck(holds_a=holds_a, holds_b=holds_b,
                          spread_a=span_a, spread_b=span_b, tol=tol)
