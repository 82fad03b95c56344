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
from typing import Optional

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "ZeroErrorCheck",
    "zero_system_equilibrium",
    "transient_bound_s",
    "tracking_bound_curve",
    "ultimate_bound",
    "convergence_rate",
    "zero_error_class_check",
    "project_disagreement",
]

CONFLUENT_REL_TOL = 1e-9
_TINY = np.finfo(float).tiny  # the smallest normal float


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


def _branch_factor(t, alpha: float, blam: float, kappa: float, ea, eb):
    """The confluent-aware transient factor multiplying (alpha ||y0|| + ||w0||)
    in s(t) and ||du(0)|| in the tracking bound; t is a float or an array,
    and ea, eb are e^{-alpha t} and e^{-blam t}."""
    if abs(alpha - blam) < CONFLUENT_REL_TOL * alpha:
        return kappa * t * eb
    return kappa * (ea - eb) / (blam - alpha)


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
    s = s + _branch_factor(t, alpha, blam, kappa, ea, eb) * (alpha * b.y0_norm + b.w0_norm)
    return float(s) if t.ndim == 0 else s


def _scan_affine_maps(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Overwrite c with x_k = a_k x_{k-1} + c_k, x_{-1} = 0, and return it.

    This is the scalar case of ``engine._affine_scan``: Hillis-Steele
    doubling over the affine maps x -> a_k x + c_k, whose composition is
    associative (Blelloch, "Prefix sums and their applications", 1990).
    After the pass of stride s, entry k holds the composition of maps
    k - 2s + 1 .. k, so log2(len(c)) passes of
    ``c[s:] += a[s:] * c[:-s]; a[s:] *= a[:-s]`` finish the scan; a is
    overwritten too.  The products go through one temporary, and the
    flush below through one mask, both allocated before the first pass,
    so no pass allocates.  A product of the a_k that falls below the
    normal range is flushed to 0: its terms are below the roundoff of the
    sum they join, and subnormal arithmetic runs about twenty times
    slower.  Once every product is 0 the later passes would add nothing,
    so the scan stops."""
    n = c.size
    tmp, small = np.empty(n), np.empty(n, dtype=bool)
    lo = a.min() if n else 1.0  # a product of 2s of the a_k in [0, 1] is >= lo ** (2s)
    s = 1
    while s < n:
        t = tmp[:n - s]
        c[s:] += np.multiply(a[s:], c[:-s], out=t)
        if 2 * s >= n:
            break  # the last pass: the products are not needed again
        np.multiply(a[s:], a[:-s], out=t)
        lo *= lo
        if lo < _TINY and t.min() < _TINY:
            np.copyto(t, 0.0, where=np.less(t, _TINY, out=small[:n - s]))
            if not t.any():
                break
        a[s:] = t
        s *= 2
    return c


def tracking_bound_curve(grid, b: BoundInputs, pi_udot_samples, transient=None) -> BoundCurve:
    """Tracking-error envelope at every grid point:

    s(t) + kappa int_0^t e^{-beta lam (t - tau)} ||Pi_N du(tau)|| dtau
         + branch(t) ||du(0)||,

    with ``pi_udot_samples`` the integrand's ||Pi_N du|| on the grid and the
    integral by composite trapezoid on it (the integrand is smooth between
    input breakpoints).  ``transient`` is s(t) on the grid, as
    ``transient_bound_s(grid, b)`` gives it, when the caller already has
    it.  The grid need not be uniform.  The fading-memory integral obeys
    I(t_k) = d_k I(t_{k-1}) + tau_k, with d_k = e^{-beta lam h_k} and tau_k
    the trapezoid over [t_{k-1}, t_k], which reproduces the composite
    trapezoid rule on the full grid.  The recurrence is scanned in
    log2(len(grid)) vectorised passes (``_scan_affine_maps``), not stepped
    one point at a time.  Every term is nonnegative, so the sums lose a
    few ulps per pass.  The decay over m steps is a product formed by
    repeated squaring, which doubles its relative error at each pass, to
    about m ulps; so where the integral only decays over m steps its
    relative error is about m ulps (the step-by-step recurrence's is about
    sqrt(m)), and relative to the curve's largest value the error stays
    of order min(len(grid), 1 / (beta lam h)) ulps.
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
    integral = np.zeros_like(grid)
    integral[1:] = 0.5 * h * (decay * f[:-1] + f[1:])  # the trapezoids
    _scan_affine_maps(decay, integral[1:])
    if transient is None:
        transient = transient_bound_s(grid, b)
    branch = _branch_factor(grid, b.alpha, blam, kappa,
                            np.exp(-b.alpha * grid), np.exp(-blam * grid))
    values = transient + kappa * integral + branch * b.udot0_norm
    return BoundCurve(grid=grid, values=values)


def ultimate_bound(beta: float, lambda_hat_2: float, gamma: float,
                   delta: Optional[float] = None, kappa: float = 1.0) -> float:
    """Steady-state tracking-error cap kappa gamma / (beta lambda_hat_2);
    the discrete algorithm divides by delta as well.  kappa is 1 on a fixed
    digraph.  In switching mode it is the overshoot constant of the
    consensus-subspace transition, ||Phi(t, tau)|| <= kappa
    e^{-beta lambda_hat_sigma (t - tau)}, with lambda_hat_sigma in place of
    lambda_hat_2: the limit of ``tracking_bound_curve``'s fading integral
    kappa int e^{-beta lam (t - tau)} gamma dtau."""
    if beta <= 0 or lambda_hat_2 <= 0:
        raise ValueError("beta and lambda_hat_2 must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if delta is None:
        return kappa * gamma / (beta * lambda_hat_2)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return kappa * gamma / (delta * beta * lambda_hat_2)


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
