"""Independent oracles: the step-at-a-time forms that dacsim's vectorised
kernels replaced, kept word for word so the tests can hold the kernels to
them, and reference computations that the tests use and no run does: the
homogeneous (zero-system) dynamics, the one-step matrix's spectrum and the
zero-error input-class check."""

import math
from dataclasses import dataclass

import numpy as np


def fading_integral(grid, pi_udot_samples, blam):
    """int_0^{t_k} e^{-blam (t_k - tau)} f(tau) dtau at every grid point,
    by the composite trapezoid rule, one point at a time:
    I(t_k) = e^{-blam h_k} I(t_{k-1}) + trapezoid over [t_{k-1}, t_k]."""
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(pi_udot_samples, dtype=float)
    h = np.diff(grid)
    decay = np.exp(-blam * h)
    trapezoids = 0.5 * h * (decay * f[:-1] + f[1:])
    integral = np.zeros_like(grid)
    acc = 0.0
    for k, (dec, inc) in enumerate(zip(decay.tolist(), trapezoids.tolist()), start=1):
        acc = dec * acc + inc
        integral[k] = acc
    return integral


def svg_points(xs, ys):
    """A polyline's points attribute: each coordinate rounded to hundredths,
    rint(100 x) / 100, written as "%.12g", and the "x,y" pairs joined by
    single spaces."""
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = (np.rint(100.0 * np.asarray(c, dtype=float)) / 100.0 for c in (xs, ys))
    return " ".join(map("%.12g,%.12g".__mod__, zip(xs.tolist(), ys.tolist())))


def simulate_zero_system(g, alpha, beta, y0, w0, h, T):
    """The homogeneous dynamics d/dt (y, w) = A (y, w), with
    A = [[-alpha I - beta L, -I], [alpha beta L, 0]] and L the out-Laplacian
    of g's weights, by classical RK4 with step h, one step at a time.  y0
    and w0 may carry a trailing batch axis.  Returns (times, y_traj, w_traj)."""
    weights = np.asarray(g.weights, dtype=float)
    n = weights.shape[0]
    lap = np.diag(weights.sum(axis=1)) - weights
    eye = np.eye(n)
    a = np.block([[-alpha * eye - beta * lap, -eye], [alpha * beta * lap, np.zeros((n, n))]])
    steps = int(round(T / h))
    s = np.concatenate((np.asarray(y0, dtype=float), np.asarray(w0, dtype=float)), axis=0)
    out = np.empty((steps + 1,) + s.shape)
    out[0] = s
    for m in range(steps):
        k1 = a @ s
        k2 = a @ (s + 0.5 * h * k1)
        k3 = a @ (s + 0.5 * h * k2)
        k4 = a @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[m + 1] = s
    return np.arange(steps + 1) * h, out[:, :n], out[:, n:]


def pdelta_eigenvalues(g, alpha, beta, delta):
    """Eigenvalues of the one-step matrix P = I + delta A, built whole at
    size 2n x 2n with A = [[-alpha I - beta L, -I], [alpha beta L, 0]] and
    handed to the general eigensolver."""
    weights = np.asarray(g.weights, dtype=float)
    n = weights.shape[0]
    lap = np.diag(weights.sum(axis=1)) - weights
    eye = np.eye(n)
    a = np.block([[-alpha * eye - beta * lap, -eye], [alpha * beta * lap, np.zeros((n, n))]])
    return np.linalg.eigvals(np.eye(2 * n) + delta * a)


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


def _spread_verdict(spreads, tol):
    head = float(np.mean(spreads[: max(1, spreads.size // 10)]))
    tail = float(np.mean(spreads[-max(1, spreads.size // 10):]))
    holds = tail <= tol or tail <= 0.5 * max(head, tol)
    return holds, (head, tail)


def zero_error_class_check(inputs, alpha, grid, delta=None, tol=1e-3, h_dd=1e-4):
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


def stage1_commands(rhs, traj, inputs):
    """The x-velocity command that a closure run applies at each stored
    row, the x rows of its stage-1 slope rhs(t_k, y_k, u(t_k), du/dt(t_k))
    (clamped, for the saturated protocols), from the stored states on a
    fixed digraph."""
    u, du = inputs.eval_all(traj.times)
    ys = np.hstack([traj.x, traj.v] + ([traj.z] if traj.z is not None else []))
    return np.array([rhs(t, y, a, b)[:traj.n] for t, y, a, b in zip(traj.times, ys, u, du)])
