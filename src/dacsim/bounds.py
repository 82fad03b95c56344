"""Closed-form performance guarantees of the tracker family, evaluated
numerically for comparison against simulated trajectories.

Everything here is a scalar envelope: the transient envelope s(t), the full
tracking-error bound (s(t) plus a fading convolution of the input-derivative
disagreement) and the ultimate bounds.  They read one pair (lambda_hat,
kappa), the decay rate and overshoot of the consensus-subspace transition:
(lambda_hat_2, 1) on a fixed digraph, and under a schedule the user-supplied
lambda_hat_sigma and kappa, for which no constructive recipe exists here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "transient_bound_s",
    "tracking_bound_curve",
    "ultimate_bound",
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
    (x(0) - avg u(0) 1  and  v(0) - Pi_N(du(0) + alpha u(0))).  lambda_hat
    and kappa are the decay constant and overshoot of the consensus-subspace
    transition: lambda_hat_2 and 1 on a fixed digraph, the user's
    lambda_hat_sigma and kappa under a schedule.
    """

    alpha: float
    beta: float
    lambda_hat: float
    y0_norm: float
    w0_norm: float
    udot0_norm: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.lambda_hat <= 0:
            raise ValueError("lambda_hat must be positive (strongly connected, weight-balanced)")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        for name in ("y0_norm", "w0_norm", "udot0_norm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_initial(cls, x0, v0, u0, du0, alpha, beta, lambda_hat,
                     kappa=1.0) -> "BoundInputs":
        """Build the norms from raw initial data."""
        x0 = np.asarray(x0, dtype=float)
        u0 = np.asarray(u0, dtype=float)
        du0 = np.asarray(du0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        y0 = x0 - u0.mean()
        w0 = v0 - project_disagreement(du0 + alpha * u0)
        return cls(alpha=alpha, beta=beta, lambda_hat=lambda_hat,
                   y0_norm=float(np.linalg.norm(y0)), w0_norm=float(np.linalg.norm(w0)),
                   udot0_norm=float(np.linalg.norm(du0)), kappa=kappa)


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """A nonnegative envelope sampled on the run's stored times."""

    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("bound curves must be finite and nonnegative")


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
    away from the confluent point alpha = beta lam and t e^{-beta lam t} at it,
    with lam = b.lambda_hat and kappa = b.kappa.  A scalar t
    gives a float, an array of times an array.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    alpha = b.alpha
    blam = b.beta * b.lambda_hat
    kappa = b.kappa
    ea = np.exp(-alpha * t)
    eb = np.exp(-blam * t)
    s = (ea + kappa * eb) * b.y0_norm + ea * b.w0_norm / alpha
    s = s + _branch_factor(t, alpha, blam, kappa, ea, eb) * (alpha * b.y0_norm + b.w0_norm)
    return float(s) if t.ndim == 0 else s


def _scan_affine_maps(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Overwrite c with x_k = a_k x_{k-1} + c_k, x_{-1} = 0, and return it.

    The engine's ``_sweep`` anchors its sub-blocks with one N_s, as its
    increment N is fixed; here a_k changes with the grid step, so this
    scalar recurrence is scanned instead: Hillis-Steele doubling over the
    affine maps x -> a_k x + c_k, whose composition is associative
    (Blelloch, "Prefix sums and their applications", 1990).
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
    blam = b.beta * b.lambda_hat
    kappa = b.kappa
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
    return BoundCurve(values=values)


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
