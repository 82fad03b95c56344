"""Fixed-step integration of the continuous protocols, iteration of the
discrete one, switching-aware stepping, and trajectory metrics.

Integration is the classical 4th-order one-step scheme on a uniform grid.
Topology switches are handled by grid alignment, not event detection: every
switching boundary must land on a grid point, and the digraph active at a
step's start governs the whole step (right continuity).  A run aborts with a
diagnostic as soon as any state magnitude passes 1e12, which catches
inadmissible stepsizes early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as bnd
from .discrete import dcdisc_system, max_stepsize, zero_system_matrix
from .graphs import BALANCE_TOL, WeightedDigraph, laplacian, symmetric_spectrum
# dc2_rhs and dc3_rhs, which no run calls, stay bound here for perfbench's tracer
from .protocols import Z_STATE_PROTOCOLS, AgentState, AlgorithmParams, dc1_rhs, dc2_rhs, dc3_rhs
from .signals import InputSet, pi_norms, pi_udot_series, sampled_gamma
from .switching import SwitchingSchedule

__all__ = [
    "Trajectory",
    "ErrorReport",
    "DivergenceError",
    "integrate",
    "simulate_protocol",
    "simulate_discrete",
    "error_metrics",
    "fit_decay_rate",
    "pi_udot_series",
    "run_scenario",
    "write_trajectory_csv",
    "check_on_grid",
    "check_switches_on_grid",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e12
GRID_ALIGN_TOL = 1e-6  # steps a grid time may lie from the nearest whole step
FIT_START_FRACTION = 0.5
FIT_FLOOR = 1e-8
# multiply-adds m n k of the smallest product OpenBLAS runs threaded (measured
# on 0.3.31); a second thread can stall a run for most of a second, so every
# stepping product goes a few rows at a time below this size
BLAS_THREADED_SIZE = 2 ** 19
# _sweep steps a block of SWEEP_BLOCK rows, the span of one divergence check
# and of one input evaluation on the affine path, as SWEEP_SUBBLOCKS
# sub-blocks of SWEEP_SUBSTEPS rows, a power of two so that N_s comes from
# doubling.  A block of s nb rows makes about 6 s + 3 nb numpy calls; in
# process, 32 x 64 stepped static, case1, rate and discrete_wide 14-30%
# faster than 32 x 32, and within 10% of 64 x 32 and 16 x 64
SWEEP_SUBSTEPS = 32
SWEEP_SUBBLOCKS = 64
SWEEP_BLOCK = SWEEP_SUBSTEPS * SWEEP_SUBBLOCKS
# steps of the stage slopes that dc2_sat's motion phase tests for clipping
# at a time
CLIP_WINDOW = 256
# cells per format_g12 block; 2 ** 14 and 2 ** 15 wrote no faster and raised
# discrete_wide's peak memory by 1.5 and 4.6 MB.  With the helper process,
# 2 ** 12 wrote discrete_wide 13% slower and 2 ** 14 within 2%
CSV_CELLS = 2 ** 13


class DivergenceError(RuntimeError):
    """A trajectory left the trust region (non-finite or > 1e12 in magnitude)."""

    def __init__(self, message, t=None, partial=None):
        super().__init__(message)
        self.t = t
        # the run up to the first bad row: a Trajectory from simulate_protocol
        # and simulate_discrete, (times, states) from integrate
        self.partial = partial


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled run: states per stored time, and for masked runs the
    transmitted payloads.  x, v and z are column views of the run's state
    buffer, x one of its own for dc2, dc2_sat and dc3; dcdisc steps (x, v)
    and derives z = x - u per block.
    ``avg_u`` and ``pi_udot`` (||Pi_N u_dot||, None for dcdisc) are the
    input statistics at the stored times, taken from the samples the run
    stepped on."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    avg_u: np.ndarray
    protocol: str
    z: Optional[np.ndarray] = None
    messages_sample: Optional[np.ndarray] = None
    k_index: Optional[np.ndarray] = None
    pi_udot: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def errors(self) -> np.ndarray:
        return self.x - self.avg_u[:, None]


@dataclass(eq=False)
class ErrorReport:
    """Tail tracking metrics of one run."""

    per_agent_sup_error_tail: np.ndarray
    fitted_rate: np.ndarray
    bound_violations: int
    gamma_used: float
    conservation_residual: float
    tail_start: float = 0.0


def check_on_grid(value: float, h: float, what: str, step: str = "h"):
    """Raise ValueError unless value is a whole number of steps h, to within
    GRID_ALIGN_TOL steps; ``step`` names h in the message.  This is the one
    alignment rule, for the horizon (of dcdisc too, in steps of
    "params.delta") and the switching boundaries, of both config validation
    and the run.  The tolerance is absolute in steps: one relative to the
    step count would let a boundary sit whole steps off the grid on a long
    run, while the rounding of value / h stays far below it within the
    state budget."""
    steps = value / h
    if abs(steps - round(steps)) > GRID_ALIGN_TOL:
        suggestion = value / max(1, math.ceil(steps))
        raise ValueError(
            f"{what} {value} is not a multiple of the step {step} = {h}; "
            f"try {step} = {suggestion:.9g}")


def check_switches_on_grid(sched: SwitchingSchedule, h: float, T: float):
    """Raise ValueError unless every switch of sched in (0, T) is a whole
    number of steps h (``check_on_grid``).  One period's switch times, the
    segment starts after the first and the period, are checked first, and
    the schedule is unrolled only when they sit on the grid and the period
    spans a step or more, so it unrolls to at most one period a step."""
    period = sched.period
    for t in [s for s, _ in sched.segments[1:]] + ([period] if period else []):
        if t < T:
            check_on_grid(t, h, "switching boundary")
    if period and period < T and round(period / h) < 1:
        raise ValueError(f"schedule period {period} is shorter than the step h = {h}")
    for t in sched.boundaries(T):
        check_on_grid(t, h, "switching boundary")


def _grid(h: float, T: float, events=()) -> np.ndarray:
    """Stored times 0, h, ..., T of a run; T and every event in (0, T)
    must sit on the grid."""
    if h <= 0:
        raise ValueError("step h must be positive")
    if T < h:
        raise ValueError("horizon T must be at least one step")
    check_on_grid(T, h, "horizon")
    for e in events:
        if 0.0 < e < T:
            check_on_grid(e, h, "switching boundary")
    return np.arange(int(round(T / h)) + 1) * h


def _divergence(peak: float, times: np.ndarray, states: np.ndarray, k: int) -> DivergenceError:
    """The abort for stored row k, the first one past the trust region.  The
    partial trajectory is (times, states) cut after row k."""
    return DivergenceError(
        f"state magnitude {peak:.3g} at t={times[k]:.6g} exceeds "
        f"{DIVERGENCE_LIMIT:.0e}; the configuration is numerically unstable "
        "(check stepsize and gains)",
        t=float(times[k]),
        partial=(times[: k + 1], states[: k + 1]),
    )


def _rk4_step(f, t, y, h: float, a0, ah, a1):
    """One classical RK4 step of dy/dt = f(t, y, *a) from (t, y), where a0,
    ah and a1 are the further arguments at t, t + h/2 and t + h.  Returns
    (the next y, the stage-1 slope f(t, y, *a0))."""
    half = 0.5 * h
    k1 = f(t, y, *a0)
    k2 = f(t + half, y + half * k1, *ah)
    k3 = f(t + half, y + half * k2, *ah)
    k4 = f(t + h, y + h * k3, *a1)
    return y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4), k1


def integrate(rhs, s0, h: float, T: float, events=()):
    """Classical 4th-order fixed-step integration of ds/dt = rhs(t, s, t_step).

    ``t_step`` is the start of the current step, passed to all four stages
    so piecewise-constant structure can be held fixed across a step.
    ``events`` lists times that must sit on the grid.  Returns (times,
    states, stage1) where stage1[k] = rhs evaluated at the stored point k.
    The protocols do not run through here: ``simulate_protocol`` steps them
    block by block with the same ``_rk4_step``.
    """
    times = _grid(h, T, events)
    steps = times.size - 1
    y = np.asarray(s0, dtype=float).copy()
    out = np.empty((steps + 1,) + y.shape)
    stage1 = np.empty_like(out)
    out[0] = y
    for m in range(steps):
        t0 = times[m]
        y, stage1[m] = _rk4_step(rhs, t0, y, h, (t0,), (t0,), (t0,))
        out[m + 1] = y
        peak = np.max(np.abs(y))
        if not peak <= DIVERGENCE_LIMIT:  # NaN fails it
            raise _divergence(peak, times, out, m + 1)
    stage1[steps] = rhs(times[steps], y, times[steps])
    return times, out, stage1


def _rk4_affine(a: np.ndarray, e: np.ndarray, h: float):
    """Classical RK4 on dy/dt = A y + E f(t) is exactly
    y_{k+1} = y_k + N y_k + Q0 f(t_k) + Qh f(t_k + h/2) + Q1 f(t_k + h),
    where I + N = sum_{j<=4} (hA)^j / j! is the stability polynomial.
    Returns (N, Q0, Qh, Q1).  Stepping by the increment N y_k keeps the sum
    of the integral states v conserved to roundoff of the increment, as in
    the stage-wise form; forming I + N first would round it to that of v."""
    eye = np.eye(a.shape[0])
    ha = h * a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    incr = ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
    q0 = (h / 6.0) * (eye + ha + ha2 / 2.0 + ha3 / 4.0) @ e
    qh = (h / 6.0) * (4.0 * eye + 2.0 * ha + ha2 / 2.0) @ e
    return incr, q0, qh, (h / 6.0) * e


class _Affine(NamedTuple):
    """y_{k+1} = y_k + N y_k + c_k on the first N.shape[0] columns: N^T,
    N_s^T (``_power_increment``), ``forcing(k0, k1)``, which writes c_k into
    row k + 1 for k0 <= k < k1, and ``publish(k0, k1)``, which finishes rows
    k0 + 1..k1 and checks them: it returns the index i among them of the
    first past the trust region (``_first_bad``), or k1 - k0, and the
    arrays it checked, whose rows i hold the peak."""

    n_t: np.ndarray
    ns_t: np.ndarray
    forcing: Callable
    publish: Callable


def _block_run(build, graphs, pieces, times, out: np.ndarray):
    """Step the rows of out, the states at the stored times, from row 0:
    each (k_start, k_end, digraph index) piece in blocks of SWEEP_BLOCK
    steps, with the stepper that ``build`` makes from the digraph's
    Laplacian, once per digraph.  An ``_Affine`` block is forced, stepped
    in place by ``_sweep``, then published and checked before the next
    block is forced, so publishing may read the block's forcing samples.
    Any other stepper steps and checks its rows itself."""
    built = {}
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for k_start, k_end, idx in pieces:
            if idx not in built:
                built[idx] = build(laplacian(graphs[idx]))
            step = built[idx]
            for k0 in range(k_start, k_end, SWEEP_BLOCK):
                k1 = min(k0 + SWEEP_BLOCK, k_end)
                if not isinstance(step, _Affine):
                    step(k0, k1)
                    continue
                step.forcing(k0, k1)
                _sweep(step.n_t, step.ns_t, out[:, :len(step.n_t)], k0, k1)
                bad, blocks = step.publish(k0, k1)
                if bad < k1 - k0:
                    peak = np.max([np.abs(b[bad]).max() for b in blocks])  # NaN propagates
                    raise _divergence(peak, times, out, k0 + 1 + bad)


def _first_bad(rows: np.ndarray, cols=slice(None)) -> int:
    """The index of the first of the contiguous rows whose columns cols
    leave the trust region, or len(rows), located only when the extremes of
    the whole rows fail, as NaN does.  Those take 5 us on 2048 x 12 rows,
    where extremes per column take 80 us and those of a strided view go
    through a 64 KB buffer."""
    if rows.max() <= DIVERGENCE_LIMIT and -rows.min() <= DIVERGENCE_LIMIT:
        return len(rows)
    bad = np.flatnonzero(~(np.abs(rows[:, cols]).max(axis=1) <= DIVERGENCE_LIMIT))
    return int(bad[0]) if bad.size else len(rows)


def _forcing(out: np.ndarray, *terms):
    """Write the sum of a @ b over the (a, b) terms into out, a few rows at
    a time, each product below BLAS_THREADED_SIZE."""
    rows = max(1, (BLAS_THREADED_SIZE - 1) // max(a.shape[1] * b.shape[1] for a, b in terms))
    (a0, b0), *rest = terms
    for r in range(0, len(out), rows):
        part = np.matmul(a0[r:r + rows], b0, out=out[r:r + rows])
        for a, b in rest:
            part += a[r:r + rows] @ b


def _advance(y: np.ndarray, n_t: np.ndarray, g: np.ndarray, out: np.ndarray):
    """One step y + (y N^T + g), the bracket formed first, of a stack of
    rows y into out, which may be g, in row slices below BLAS_THREADED_SIZE."""
    rows = max(1, (BLAS_THREADED_SIZE - 1) // n_t.size)
    if len(y) > rows:
        for r in range(0, len(y), rows):
            _advance(y[r:r + rows], n_t, g[r:r + rows], out[r:r + rows])
        return
    incr = y @ n_t
    incr += g
    np.add(y, incr, out=out)


def _sweep(n_t: np.ndarray, ns_t: np.ndarray, ys: np.ndarray, k0: int, k1: int):
    """Step rows k0 + 1..k1 of ys in place from row k0 by the recurrence
    y_{k+1} = y_k + y_k N^T + g_k: row k + 1 holds the forcing g_k on entry
    and y_{k+1} on return.  n_t is N^T, and ns_t is N_s^T, with
    N_s = (I + N)^s - I for s = SWEEP_SUBSTEPS (``_power_increment``).  The
    rows split into sub-blocks of s rows, the last one possibly shorter,
    each stepped from an anchor row:

    1. the forced response f of every sub-block but the last, the part its
       forcing drives, is stepped from zero, all at once;
    2. each next anchor follows from the one before as a + (a N_s^T + f);
    3. every sub-block is stepped from its anchor, which writes the rows.

    Sweeps 1 and 3 step a stack of one row per sub-block in increment form
    (``_advance``), so I + N is never formed.  The anchors sit in a stack of
    their own, since the rows they would take still hold forcing that sweep
    3 reads.  Once N_s overflows, an exactly zero anchor still moves by its
    f alone, as in stepping one row at a time."""
    s = SWEEP_SUBSTEPS
    last = k0 + (k1 - k0 - 1) // s * s  # the last sub-block's anchor
    forced = ys[k0 + 1:last + 1:s].copy()  # the first step from zero
    for i in range(1, s):
        _advance(forced, n_t, ys[k0 + 1 + i:last + 1:s], forced)
    anchors = np.empty((len(forced) + 1, ys.shape[1]))
    anchors[0] = ys[k0]
    finite = np.isfinite(ns_t).all()
    for b, f in enumerate(forced):
        a = anchors[b]
        np.add(a, a @ ns_t + f if finite or a.any() else f, out=anchors[b + 1])
    for i in range(min(s, k1 - k0)):
        rows = ys[k0 + 1 + i:k1 + 1:s]
        _advance(anchors if i == 0 else ys[k0 + i:k1:s], n_t, rows, rows)


def simulate_protocol(protocol: str, topology, inputs: InputSet, p: AlgorithmParams,
                      state0: AgentState, h: float, T: float) -> Trajectory:
    """Run one continuous protocol through ``_block_run`` and package the
    stored grid.  A block evaluates the inputs once on its half-step grid
    and reads avg_u and ||Pi_N u_dot|| off the stored times' samples.  dc1,
    and the information phase (z, v) of dc2, dc2_sat and dc3, which is dc1
    on (z, v), are affine: a block writes c_j = Q0 f_j + Qh f_{j+1/2} + Q1 f_{j+1},
    f = du + alpha u, into its rows.  dc3's common mask cancels, L (z + psi) =
    L z, so only its messages read psi (``_package``).  The three then step
    x per agent (``_motion``) up to the block's first (z, v) row past the
    limit, on theta read once on those steps' half-step grid, and check
    theta's bounds only at the steps before the first bad row of (z, v) or
    x.  dc1_sat RK4-steps each row with the digraph's
    ``dc1_rhs`` closure and checks it.  So on either path a ThetaGain that
    leaves its bounds later in the block cannot pre-empt a divergence."""
    n = state0.n
    if protocol not in ("dc1", "dc1_sat", "dc2", "dc2_sat", "dc3"):
        raise ValueError(f"unknown continuous protocol {protocol!r}")
    motion = protocol in Z_STATE_PROTOCOLS
    if motion and state0.z is None:
        raise ValueError(f"protocol {protocol} needs an initial z state")
    limits = p.sat_limits if protocol == "dc2_sat" else None
    if motion and (p.theta is None or protocol == "dc2_sat" and limits is None):
        raise ValueError(f"protocol {protocol} needs a theta gain and, if saturated, sat_limits")
    times = _grid(h, T)
    switching = isinstance(topology, SwitchingSchedule)
    if switching:
        check_switches_on_grid(topology, h, T)
    elif not isinstance(topology, WeightedDigraph):
        raise TypeError("topology must be a WeightedDigraph or a SwitchingSchedule")
    # the motion protocols step (z, v) in the buffer where dc1 steps (x, v),
    # and x in one of its own
    out = np.empty((times.size, 2 * n))
    out[0] = np.concatenate((state0.z if motion else state0.x, state0.v))
    avg_u, pi_udot = np.empty(times.size), np.empty(times.size)
    # the (u, du) stage samples of a block, refilled by every block: freeing
    # them before the next block's are allocated let glibc trim the top of
    # the heap and fault it in again (2 000 more minor faults on case1)
    samples = np.empty((2, 2 * min(SWEEP_BLOCK, times.size - 1) + 1, n))
    if motion:
        xs = np.empty((times.size, n))
        xs[0] = state0.x

    def half_steps(k0, k1):
        # the RK4 stage times of steps k0..k1 - 1: each stored time, whose
        # rows give the statistics, and its step's midpoint
        grid = np.repeat(times[k0:k1 + 1], 2)[:-1]
        grid[1::2] += 0.5 * h
        return grid

    def sample(k0, k1):
        grid = half_steps(k0, k1)
        u, du = samples[:, :grid.size]
        inputs.eval_all(grid, out=(u, du))
        avg_u[k0:k1 + 1] = u[::2].mean(axis=1)
        pi_udot[k0:k1 + 1] = pi_norms(du[::2])
        return u, du

    def affine(lap):
        a = zero_system_matrix(lap, p.alpha, p.beta)
        incr, q0, qh, q1 = _rk4_affine(a, np.vstack((np.eye(n), np.zeros((n, n)))), h)
        incr = _zero_v_sums(incr, lap)

        def forcing(k0, k1):
            u, du = sample(k0, k1)
            f = np.add(du, np.multiply(u, p.alpha, out=u), out=u)  # u is spent
            _forcing(out[k0 + 1:k1 + 1], (f[0:-1:2], q0.T), (f[1::2], qh.T), (f[2::2], q1.T))

        def publish(k0, k1):
            ys = out[k0 + 1:k1 + 1]  # (x, v), or (z, v) for the motion phase
            bad = _first_bad(ys)
            if not motion:
                return bad, (ys,)
            # x is stepped up to the first (z, v) row past the limit, and theta
            # checked, as the closure reads it, up to the first bad row's step
            k1 = k0 + min(bad + 1, k1 - k0)
            grid = half_steps(k0, k1)
            # a shape constant in t is read on the first step's grid: one row
            # of gains then serves the block, and no per-step array is made
            th = p.theta.values(grid[:3] if p.theta.shape.kind == "constant" else grid)
            gains = _rk4_gains(-th[0:-1:2], -th[1::2], -th[2::2], h)
            _motion(out[k0:k1 + 1], xs[k0:k1 + 1], gains, samples[0], a.T, h, limits)
            bad = min(bad, _first_bad(xs[k0 + 1:k1 + 1]))
            cut = 2 * min(bad + 1, k1 - k0) + 1
            p.theta.check(grid[:cut], th[:cut])
            return bad, (ys, xs[k0 + 1:k1 + 1])

        ns = _zero_v_sums(_power_increment(incr, SWEEP_SUBSTEPS), lap)
        return _Affine(incr.T, ns.T, forcing, publish)

    def rk4(rhs, k0, k1):
        u, du = sample(k0, k1)
        for j in range(k0, k1):
            i = 2 * (j - k0)  # the samples at t_j, its midpoint and t_j + h
            out[j + 1] = _rk4_step(rhs, times[j], out[j], h, *zip(u[i:i + 3], du[i:i + 3]))[0]
            peak = np.max(np.abs(out[j + 1]))
            if not peak <= DIVERGENCE_LIMIT:  # NaN fails it
                raise _divergence(peak, times, out, j + 1)

    def trajectory(k):
        first = out[:k, :n]
        return _package(protocol, p, times[:k], avg_u[:k], pi_udot=pi_udot[:k],
                        x=xs[:k] if motion else first, v=out[:k, n:], z=first if motion else None)

    def closure(lap):  # looked up at call time, so rebinding engine.dc1_rhs takes effect
        return partial(rk4, dc1_rhs(lap, p, saturate=True))

    build = closure if protocol == "dc1_sat" else affine
    pieces = ([(round(a / h), round(b / h), idx) for a, b, idx in topology.segments_in(T)]
              if switching else [(0, times.size - 1, 0)])
    try:
        _block_run(build, topology.graphs if switching else (topology,), pieces, times, out)
    except DivergenceError as err:
        err.partial = trajectory(len(err.partial[0]))  # it keeps the input statistics
        raise
    return trajectory(times.size)


def _rk4_gains(la, lb, lc, h: float):
    """RK4 on de/dt = lam(t) e, lam per agent at each step's start, midpoint
    and end, in rows per step or one row for every step: lam at the four
    stages, e's factor g at the four stage arguments, and e's factor r over
    the step."""
    g2 = 1.0 + 0.5 * h * la
    g3 = 1.0 + 0.5 * h * lb * g2
    g4 = 1.0 + h * lb * g3
    return (la, lb, lb, lc), (1.0, g2, g3, g4), 1.0 + h / 6.0 * (la + 2.0 * lb * (g2 + g3) + lc * g4)


def _motion(zv: np.ndarray, x: np.ndarray, gains, f: np.ndarray, a_t: np.ndarray, h: float,
            limits):
    """Step x over stored rows 0..m from (z, v) rows zv, x's row 0 given.
    RK4 on dx = clip(lam (x - z) + dz), lam = -theta, reads the stage
    arguments of (z, v), so e = x - z obeys RK4 on de = clip(lam e + dz) - dz,
    dz the z rows of the (z, v) stage slopes (A^T = a_t, f = du + alpha u on
    the half-step grid).  Unclamped, e is a running product of
    ``_rk4_gains``' r.  With limits, CLIP_WINDOW steps at a time form the
    stage commands lam g e + dz; from the first that clips, e goes one
    clamped step at a time until a step clips nothing.  e restarts from
    x - z each block, so one that decays below z's rounding is 0 there."""
    m, n = len(x) - 1, x.shape[1]
    lams, gs, r = gains
    e = np.empty((m + 1, n))
    np.subtract(x[0], zv[0, :n], out=e[0])

    def slopes(j, j2):
        # the z rows of the (z, v) stage slopes of steps j..j2 - 1, stage by stage
        s, fj = zv[j:j2], f[2 * j:2 * j2 + 1]
        slope, arg, stage = np.empty_like(s), np.empty_like(s), s
        for fs, step in ((fj[0:-1:2], 0.5 * h), (fj[1::2], 0.5 * h), (fj[1::2], h), (fj[2::2], 0.0)):
            _forcing(slope, (stage, a_t))
            slope[:, :n] += fs
            yield slope[:, :n]
            stage = np.multiply(slope, step, out=arg)
            stage += s

    if limits is not None:  # the factors of e in the four stage commands
        coefs = [np.broadcast_to(lj * g, (m, n)) for lj, g in zip(lams, gs)]
    lams, r = [np.broadcast_to(lj, (m, n)) for lj in lams], np.broadcast_to(r, (m, n))

    def first_clip(j):
        for w in range(j, m, CLIP_WINDOW):
            w2 = min(w + CLIP_WINDOW, m)
            clips = np.zeros(w2 - w, dtype=bool)
            for c, dz in zip(coefs, slopes(w, w2)):
                cmd = np.multiply(c[w:w2], e[w:w2])
                cmd += dz
                clips |= (np.abs(cmd, out=cmd) > limits).any(axis=1)
            if clips.any():
                return w + int(clips.argmax())
        return m

    def clamped_step(j):
        # one RK4 step of e from row j; whether a stage clipped
        arg, ds, hit = e[j], [], False
        for lj, (dz,), step in zip((c[j] for c in lams), slopes(j, j + 1),
                                   (0.5 * h, 0.5 * h, h, 0.0)):
            cmd = lj * arg + dz
            hit = hit or bool((np.abs(cmd) > limits).any())
            ds.append(np.clip(cmd, -limits, limits) - dz)
            arg = e[j] + step * ds[-1]
        e[j + 1] = e[j] + h / 6.0 * (ds[0] + 2.0 * (ds[1] + ds[2]) + ds[3])
        return hit

    j = 0
    while j < m:
        e[j + 1:] = r[j:]
        np.multiply.accumulate(e[j:], axis=0, out=e[j:])
        j = m if limits is None else first_clip(j)
        while j < m:
            j += 1
            if not clamped_step(j - 1):
                break
    np.add(zv[1:, :n], e[1:], out=x[1:])


def _package(protocol, p, times, avg_u, **fields) -> Trajectory:
    """The trajectory of the stored times, with the x, v and z column views
    in fields."""
    traj = Trajectory(times=times, avg_u=avg_u, protocol=protocol, **fields)
    if protocol == "dc3":
        # one call on every stored time; a constant mask may return one number
        psi = np.broadcast_to(p.psi(times) if p.psi is not None else 0.0, times.shape)
        traj.messages_sample = traj.z + psi[:, None]
    return traj


def simulate_discrete(g: WeightedDigraph, inputs: InputSet, p: AlgorithmParams,
                      z0, v0, delta: float, num_steps: int) -> Trajectory:
    """Iterate the discrete tracker for num_steps samples of stepsize delta
    through ``_block_run``, stepping (x, v), x = z + u the published output,
    by y_{k+1} = y_k + N y_k + E (u_{k+1} - (1 - delta alpha) u_k), with
    N = delta A (``dcdisc_system``) and E = [I; 0].  Its v increment
    delta alpha beta L x_k is one Laplacian product of the near-consensus
    x, so sum(v) is conserved as in the literal update, where stepping
    (z, v) cancelled L z against L u.  The rows (x_k, v_k, z_k) are one
    buffer; the run's one input evaluation fills the z columns with u,
    which gives avg_u and meta["gamma"], sup_k ||Pi_N (u(k+1) - u(k))||,
    and a block once stepped turns them into z = x - u before its
    divergence check reads (v, z).  meta also holds delta and
    ``max_stepsize``'s bound, which is sufficient, not necessary: a larger
    delta still runs, and ``dacsim run`` says so on stderr."""
    if delta <= 0:
        raise ValueError("stepsize must be positive")
    bound = max_stepsize(p.alpha, p.beta, float(g.out_degrees.max()))
    n = g.n
    if len(inputs) != n:
        raise ValueError(f"state/inputs dimension does not match digraph size {n}")
    ks = np.arange(num_steps + 1)
    times = ks * delta
    rows = np.empty((num_steps + 1, 3 * n))
    x, v, u = rows[:, :n], rows[:, n:2 * n], rows[:, 2 * n:]  # u: the z columns, until published
    inputs.values(times, out=u)
    meta = {"delta": delta, "bound": bound, "gamma": sampled_gamma(u)}
    avg_u = u.mean(axis=1)
    x[0], v[0] = z0 + u[0], v0
    keep = 1.0 - delta * p.alpha

    last = u[0].copy()  # u at the block's start row, which publishing overwrites with z

    # one column at a time: numpy routes a 2-D operation between two views
    # of one buffer through a temporary copy, a column one does not
    def forcing(k0, k1):
        np.multiply(last, -keep, out=x[k0 + 1])
        for i in range(n):
            np.multiply(u[k0 + 1:k1, i], -keep, out=x[k0 + 2:k1 + 1, i])
            x[k0 + 1:k1 + 1, i] += u[k0 + 1:k1 + 1, i]
        v[k0 + 1:k1 + 1] = 0.0

    def publish(k0, k1):
        # x = z + u, as the literal update publishes it: x - u + u alone
        # differs from the stepped x in the last bit in about 2% of cells
        last[:] = u[k1]
        for i in range(n):
            z = x[k0 + 1:k1 + 1, i] - u[k0 + 1:k1 + 1, i]
            np.add(z, u[k0 + 1:k1 + 1, i], out=x[k0 + 1:k1 + 1, i])
            u[k0 + 1:k1 + 1, i] = z
        return _first_bad(rows[k0 + 1:k1 + 1], np.s_[n:]), (rows[k0 + 1:k1 + 1, n:],)

    def trajectory(k):
        u[0] = z0  # row 0's z columns held u(0) for the first step
        return _package("dcdisc", p, times[:k], avg_u[:k], x=x[:k], v=v[:k], z=u[:k],
                        k_index=ks[:k], meta=meta)

    def build(lap):
        incr = dcdisc_system(lap, p.alpha, p.beta, delta)[:, :2 * n].copy()
        return _Affine(incr.T, _power_increment(incr, SWEEP_SUBSTEPS).T, forcing, publish)

    try:
        _block_run(build, (g,), [(0, num_steps, 0)], times, rows)
    except DivergenceError as err:
        k = len(err.partial[0]) - 1
        raise DivergenceError(
            f"discrete state magnitude {np.abs(rows[k, n:]).max():.3g} at k={k}; stepsize "
            f"{delta} (bound {bound:.6g}) is too aggressive",
            t=err.t, partial=trajectory(k + 1)) from None
    return trajectory(num_steps + 1)


def _zero_v_sums(m: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """m, whose rows n.. step the integral states v, with each column of
    those rows made to sum to zero, to within half an ulp of its largest
    entry, which takes the correction, when lap's digraph is weight-balanced.
    There 1^T L = 0 makes sum(v) invariant and these sums zero in exact
    arithmetic; rounded (up to 3e-17 on sat.json), they drifted sum(v) by
    1e-11 over its 39 900 steps, against 7e-13 once corrected."""
    n = len(lap)
    if np.abs(lap.sum(axis=0)).max() <= BALANCE_TOL:
        sums = [math.fsum(col) for col in m[n:].T]
        m[n + np.abs(m[n:]).argmax(axis=0), np.arange(m.shape[1])] -= sums
    return m


def _power_increment(incr: np.ndarray, s: int) -> np.ndarray:
    """N_s = P^s - I for P = I + N and s a power of two, by the doubling
    N_2d = 2 N_d + N_d^2, so I + N is never formed.  Each square is taken
    a few rows at a time, each product at most half BLAS_THREADED_SIZE."""
    dim = incr.shape[0]
    rows = max(1, BLAS_THREADED_SIZE // 2 // dim ** 2)
    nd, square = incr.copy(), np.empty_like(incr)
    while s > 1:
        for r in range(0, dim, rows):
            np.matmul(nd[r:r + rows], nd, out=square[r:r + rows])
        nd *= 2.0
        nd += square
        s //= 2
    return nd


def fit_decay_rate(times: np.ndarray, err: np.ndarray) -> float:
    """Log-linear decay-rate fit of |err|, restricted to the window between
    FIT_START_FRACTION * |err(0)| and FIT_FLOOR so neither the initial
    transient nor the numerical noise floor contaminates the slope.  The rate
    is minus the closed-form least-squares slope sum((t - tm)(y - ym)) /
    sum((t - tm)^2) of y = log|err| over the window's points at or above the
    floor."""
    e = np.abs(np.asarray(err, dtype=float))
    e0 = e[0]
    if e0 <= 10 * FIT_FLOOR:
        return math.nan
    below = e <= FIT_START_FRACTION * e0
    i0 = int(below.argmax())  # the first True, or 0 when there is none
    if not below[i0]:
        return math.nan
    dead = e[i0:] < FIT_FLOOR
    i1 = i0 + int(dead.argmax()) if dead.any() else e.size
    seg_t = times[i0:i1]
    seg_e = e[i0:i1]
    keep = seg_e >= FIT_FLOOR
    if keep.sum() < 10:
        return math.nan
    # the least-squares slope of log|err| on t, from centred sums; elementwise
    # products keep the sums off threaded BLAS dot products
    tc = seg_t[keep]
    tc -= tc.mean()
    y = np.log(seg_e[keep])
    y -= y.mean()
    return float(-(tc * y).sum() / (tc * tc).sum())


def error_metrics(traj: Trajectory, tail_start: float, bound_curve=None,
                  offset: float = 0.0, gamma_used: float = 0.0) -> ErrorReport:
    """Tail sup errors, per-agent decay-rate fits, conservation residual, and
    (when an envelope is supplied) the count of stored points where the
    offset-corrected error escapes it.  The errors are formed one agent
    column at a time, so no (rows x n) temporary is built."""
    times = traj.times
    if tail_start >= times[-1]:
        raise ValueError("tail window is empty: tail_start beyond the horizon")
    tail = int(np.searchsorted(times, tail_start))  # first stored time >= tail_start
    sup_tail = np.empty(traj.n)
    rates = np.empty(traj.n)
    # offset is the predicted equilibrium of x - avg(u), so the bounded
    # quantity is the error measured from it, maximised over the agents
    shifted = np.zeros(times.size) if bound_curve is not None else None
    for i in range(traj.n):
        err = traj.x[:, i] - traj.avg_u
        sup_tail[i] = np.abs(err[tail:]).max()
        rates[i] = fit_decay_rate(times, err)
        if shifted is not None:
            err -= offset
            np.maximum(shifted, np.abs(err, out=err), out=shifted)
    vsum = traj.v.sum(axis=1)
    conservation = float(np.max(np.abs(vsum - vsum[0])))
    violations = 0
    if shifted is not None:
        violations = int(np.sum(shifted > bound_curve.values * (1.0 + 1e-6)))
    return ErrorReport(
        per_agent_sup_error_tail=sup_tail,
        fitted_rate=rates,
        bound_violations=violations,
        gamma_used=gamma_used,
        conservation_residual=conservation,
        tail_start=tail_start,
    )


def run_scenario(cfg):
    """Execute a validated ScenarioConfig: simulate, measure, and attach the
    bound envelopes the protocol/topology combination admits.

    Returns (Trajectory, ErrorReport, curves) where curves maps
    "bound_s"/"bound_tracking" to BoundCurve objects (empty when no envelope
    applies, e.g. switching runs without user-supplied kappa).
    """
    inputs = cfg.build_inputs()
    params = cfg.build_params()
    topology = cfg.build_topology()
    fixed = isinstance(topology, WeightedDigraph)
    discrete = cfg.protocol == "dcdisc"

    if discrete:
        num_steps = int(round(cfg.horizon / cfg.delta))
        traj = simulate_discrete(topology, inputs, params, cfg.z0, cfg.v0,
                                 cfg.delta, num_steps)
    else:
        state0 = AgentState(x=cfg.x0, v=cfg.v0,
                            z=cfg.z0 if cfg.protocol in Z_STATE_PROTOCOLS else None)
        traj = simulate_protocol(cfg.protocol, topology, inputs, params,
                                 state0, cfg.step, cfg.horizon)

    curves = {}
    lambda_hat_2 = float(symmetric_spectrum(topology)[1]) if fixed else None
    offset = -float(np.sum(cfg.v0)) / (params.alpha * len(inputs))
    # the one (lambda_hat, kappa) pair of the ultimate bound and the envelopes
    lam_hat, kappa = (lambda_hat_2, 1.0) if fixed else (cfg.lambda_hat_sigma, cfg.kappa)
    if lam_hat is not None and lam_hat <= 0:
        lam_hat = None  # disconnected graph: no bound applies
    gamma = traj.meta["gamma"] if discrete else float(traj.pi_udot.max())
    ult = (bnd.ultimate_bound(params.beta, lam_hat, gamma,
                              delta=cfg.delta if discrete else None, kappa=kappa)
           if lam_hat is not None else None)
    if cfg.protocol in ("dc1", "dc1_sat") and lam_hat is not None:
        u0, du0 = inputs.eval_all(0.0)
        b = bnd.BoundInputs.from_initial(cfg.x0, cfg.v0, u0, du0, params.alpha, params.beta,
                                         lam_hat, kappa)
        s_values = bnd.transient_bound_s(traj.times, b)
        curves["bound_s"] = bnd.BoundCurve(values=s_values)
        curves["bound_tracking"] = bnd.tracking_bound_curve(
            traj.times, b, traj.pi_udot, transient=s_values)

    if ult is not None:
        # one number seen at every stored time: a read-only view, no array
        curves["bound_ultimate"] = bnd.BoundCurve(values=np.broadcast_to(ult, traj.times.shape))

    report = error_metrics(traj, cfg.tail_start, bound_curve=curves.get("bound_tracking"),
                           offset=offset, gamma_used=gamma)
    traj.meta.update({
        "ultimate_bound": ult,
        "lambda_hat_2": lambda_hat_2,
        "offset_prediction": offset,
    })
    return traj, report, curves


def write_trajectory_csv(path, traj: Trajectory, curves=None):
    """Uniform CSV dump: t, x1..xN, v1..vN, [z1..zN,] avg, err1..errN
    [, bound_s, bound_tracking, bound_ultimate]; the discrete protocol
    prepends its iteration index k.  Twelve significant digits throughout
    (%.12g, which prints the integer k as an integer).  Rows are formatted
    about CSV_CELLS cells at a time so the table is never built whole, each
    block by ``csvformat.format_g12``, byte for byte as ``"%.12g" %``.  One
    (block rows x columns) buffer serves every block: each column range is
    copied into it from a view of the trajectory or curve, and the err
    columns are subtracted into it, so a block makes no temporaries of its
    own.

    A table of ``csvformat.FORK_BLOCKS`` blocks or more is written by two
    processes where two CPUs are free (``csvformat.helper_allowed``): a
    forked ``csvformat.BlockHelper`` formats the second half of the blocks
    into a file that this process appends after writing the first half.  A
    helper that fails makes the write raise OSError."""
    # imported here, not with the package: without cached bytecode its
    # compile would lengthen the set-up of every run, not only of those
    # that write a CSV
    from .csvformat import BlockHelper, format_g12, helper_allowed

    curves = curves or {}
    n = traj.n
    header, fills = [], []  # column names; (column range, rows x width view) pairs

    def add(names, part):
        fills.append((slice(len(header), len(header) + len(names)), part))
        header.extend(names)

    for prefix, part in (("k", traj.k_index), ("t", traj.times), ("x", traj.x),
                         ("v", traj.v), ("z", traj.z), ("avg", traj.avg_u)):
        if part is not None:
            if part.ndim == 1:
                add([prefix], part[:, None])
            else:
                add([f"{prefix}{i + 1}" for i in range(n)], part)
    err = slice(len(header), len(header) + n)
    header += [f"err{i + 1}" for i in range(n)]
    for name in ("bound_s", "bound_tracking", "bound_ultimate"):
        if name in curves:
            add([name], curves[name].values[:, None])

    rows = len(traj.times)
    block = max(1, CSV_CELLS // len(header))
    starts = range(0, rows, block)
    cells = np.empty((min(block, rows), len(header)))

    def text(a):
        out = cells[:min(block, rows - a)]
        for cols, part in fills:
            out[:, cols] = part[a:a + block]
        np.subtract(traj.x[a:a + block], traj.avg_u[a:a + block, None], out=out[:, err])
        return format_g12(out)

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        half = len(starts) // 2 if helper_allowed(len(starts)) else len(starts)
        helper = BlockHelper(text, starts[half:], path) if half < len(starts) else None
        try:
            for a in starts[:half]:
                fh.write(text(a))
            if helper:
                fh.flush()
                helper.append_to(fh.fileno())
        finally:
            if helper:
                helper.close()
