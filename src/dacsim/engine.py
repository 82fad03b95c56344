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
from typing import Optional

import numpy as np

from . import bounds as bnd
from .discrete import dcdisc_system, max_stepsize, zero_system_matrix
from .graphs import WeightedDigraph, laplacian, symmetric_spectrum
from .protocols import Z_STATE_PROTOCOLS, AgentState, AlgorithmParams, dc1_rhs, dc2_rhs, dc3_rhs
from .signals import InputSet, pi_norms, pi_udot_series, sampled_gamma
from .switching import SwitchingSchedule, graph_at

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
# cells per format_g12 block; 2 ** 14 and 2 ** 15 wrote no faster and raised
# discrete_wide's peak memory by 1.5 and 4.6 MB
CSV_CELLS = 2 ** 13
CSV_HEAP_PRIME = 2 ** 22  # bytes the writer allocates and frees before its blocks


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
    transmitted payloads.  ``commands`` is the closure path's applied
    (clamped, for the saturated protocols) x-velocity command, the stage-1
    rows of dc1_sat, dc2_sat, dc3 and a dc2 with a time-varying gain; it is
    None on the affine path (dc1, dc2 with a constant gain) and for dcdisc,
    whose outputs do not read it.  ``avg_u`` and ``pi_udot`` (||Pi_N u_dot||,
    None for dcdisc) are the input statistics at the stored times, taken
    from the samples the run stepped on."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    avg_u: np.ndarray
    protocol: str
    z: Optional[np.ndarray] = None
    commands: Optional[np.ndarray] = None
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


def _half_steps(times: np.ndarray, h: float) -> np.ndarray:
    """The RK4 stage times of the steps between ``times``: each stored time
    followed by its step's midpoint, ending at times[-1]."""
    grid = np.empty(2 * times.size - 1)
    grid[0::2] = times
    grid[1::2] = times[:-1] + 0.5 * h
    return grid


def _divergence(peak: float, times: np.ndarray, states: np.ndarray, k: int,
                *rows) -> DivergenceError:
    """The abort for stored row k, the first one past the trust region.  The
    partial trajectory is (times, states, *rows) cut after row k."""
    return DivergenceError(
        f"state magnitude {peak:.3g} at t={times[k]:.6g} exceeds "
        f"{DIVERGENCE_LIMIT:.0e}; the configuration is numerically unstable "
        "(check stepsize and gains)",
        t=float(times[k]),
        partial=tuple(a[: k + 1] for a in (times, states) + rows),
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


def _step_pieces(sched: SwitchingSchedule, h: float, T: float):
    """(k0, k1, graph index) step ranges of the ``segments_in`` pieces, the
    switching segments a run steps one at a time."""
    return [(int(round(a / h)), int(round(b / h)), idx) for a, b, idx in sched.segments_in(T)]


def _closure(protocol: str, lap: np.ndarray, p: AlgorithmParams):
    """The protocol's right-hand side f(t, y, u, du) on Laplacian lap.  The
    factories are looked up in this module at call time, so rebinding
    ``engine.dc*_rhs`` takes effect."""
    if protocol in ("dc1", "dc1_sat"):
        return dc1_rhs(lap, p, saturate=protocol == "dc1_sat")
    if protocol in ("dc2", "dc2_sat"):
        return dc2_rhs(lap, p, saturate=protocol == "dc2_sat")
    if protocol == "dc3":
        return dc3_rhs(lap, p)
    raise ValueError(f"unknown continuous protocol {protocol!r}")


def _is_affine(protocol: str, p: AlgorithmParams) -> bool:
    """dc1, and dc2 with a constant gain theta, are dy/dt = A_sigma y + b(t).
    A gain with equal bounds but its own callable stays on the closure path,
    which checks every value the callable returns against the bounds."""
    if protocol == "dc1":
        return True
    return protocol == "dc2" and p.theta is not None and p.theta.is_constant


def _affine_system(protocol: str, lap: np.ndarray, p: AlgorithmParams):
    """(A, E) of dy/dt = A y + E (du + alpha u): y = (x, v) for dc1, where E
    feeds the x rows, and y = (x, v, z) for dc2, where E feeds x and z."""
    n = lap.shape[0]
    a = zero_system_matrix(lap, p.alpha, p.beta)
    eye, zero = np.eye(n), np.zeros((n, n))
    if protocol == "dc1":
        return a, np.vstack((eye, zero))
    theta = np.diag(np.broadcast_to(p.theta.at(0.0), (n,)))  # a scalar gain serves every agent
    info = a[:n, :n]  # -alpha I - beta L
    # dz = du + alpha u + info z - v;  dv = alpha beta L z;  dx = -theta (x - z) + dz
    a = np.block([[-theta, -eye, theta + info],
                  [zero, zero, a[n:, :n]],
                  [zero, -eye, info]])
    return a, np.vstack((eye, zero, eye))


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


def _block_run(protocol, topology, inputs: InputSet, p: AlgorithmParams,
               y0: np.ndarray, h: float, T: float):
    """Step a continuous protocol one switching segment at a time, in blocks
    of SWEEP_BLOCK steps.  A block evaluates the inputs once on its stage
    times and reads avg_u and ||Pi_N u_dot|| off them at the stored times.
    On the affine path (``_is_affine``) the block then writes
    c_j = Q0 f_j + Qh f_{j+1/2} + Q1 f_{j+1} into its state rows
    (``_forcing``) and steps them in place by y_{k+1} = y_k + N_sigma y_k + c_k
    (``_sweep``); its divergence check reads the block's largest and
    smallest entries and locates the first bad row only when one of them
    fails.  Otherwise it RK4-steps its rows with the digraph's ``dc*_rhs``
    closure, each stage fed its own sample, keeps every stage-1 command,
    and checks each row as it is stepped, so a ThetaGain that leaves its
    bounds later in the block cannot pre-empt a divergence.  Returns (times,
    states, avg_u, pi_udot, commands), the x rows of the stage-1 slopes or
    None on the affine path; a divergence's partial trajectory carries the
    input statistics as far as it reaches."""
    switching = isinstance(topology, SwitchingSchedule)
    if not switching and not isinstance(topology, WeightedDigraph):
        raise TypeError("topology must be a WeightedDigraph or a SwitchingSchedule")
    graphs = topology.graphs if switching else (topology,)
    times = _grid(h, T)
    if switching:
        check_switches_on_grid(topology, h, T)
    pieces = _step_pieces(topology, h, T) if switching else [(0, times.size - 1, 0)]
    affine = _is_affine(protocol, p)
    built = {}

    def stepper(idx):
        """Digraph idx's (N^T, N_s^T, Q0^T, Qh^T, Q1^T), or its closure, built once."""
        if idx not in built:
            lap = laplacian(graphs[idx])
            if affine:
                incr, q0, qh, q1 = _rk4_affine(*_affine_system(protocol, lap, p), h)
                built[idx] = (incr.T, _power_increment(incr, SWEEP_SUBSTEPS).T, q0.T, qh.T, q1.T)
            else:
                built[idx] = _closure(protocol, lap, p)
        return built[idx]

    n = graphs[0].n
    out = np.empty((times.size, y0.size))
    avg_u, pi_udot = np.empty(times.size), np.empty(times.size)
    commands = None if affine else np.empty((times.size, n))
    # the (u, du) stage samples of a block, refilled by every block: freeing
    # them before the next block's are allocated let glibc trim the top of
    # the heap and fault it in again (2 000 more minor faults on case1)
    samples = np.empty((2, 2 * min(SWEEP_BLOCK, times.size - 1) + 1, n))
    out[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for k_start, k_end, idx in pieces:
            step = stepper(idx)
            for k0 in range(k_start, k_end, SWEEP_BLOCK):
                k1 = min(k0 + SWEEP_BLOCK, k_end)
                u, du = samples[:, :2 * (k1 - k0) + 1]
                inputs.eval_all(_half_steps(times[k0:k1 + 1], h), out=(u, du))
                # the even stage rows are the stored times k0..k1
                avg_u[k0:k1 + 1] = u[::2].mean(axis=1)
                pi_udot[k0:k1 + 1] = pi_norms(du[::2])
                if affine:
                    n_t, ns_t, q0_t, qh_t, q1_t = step
                    f = np.add(du, np.multiply(u, p.alpha, out=u), out=u)  # u is spent
                    block = _forcing(out[k0 + 1:k1 + 1],
                                     (f[0:-1:2], q0_t), (f[1::2], qh_t), (f[2::2], q1_t))
                    _sweep(n_t, ns_t, out, k0, k1)
                    # NaN fails both comparisons
                    if not (block.max() <= DIVERGENCE_LIMIT and -block.min() <= DIVERGENCE_LIMIT):
                        peak = np.abs(block).max(axis=1)
                        bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))[0]
                        raise _divergence(peak[bad], times, out, k0 + 1 + bad, avg_u, pi_udot)
                    continue
                for j in range(k0, k1):
                    i = 2 * (j - k0)  # the samples at t_j, its midpoint and t_j + h
                    y, k = _rk4_step(step, times[j], out[j], h, *zip(u[i:i + 3], du[i:i + 3]))
                    commands[j] = k[:n]
                    out[j + 1] = y
                    peak = np.max(np.abs(y))
                    if not peak <= DIVERGENCE_LIMIT:  # NaN fails it
                        raise _divergence(peak, times, out, j + 1, avg_u, pi_udot)
        if not affine:
            # the last stored point's command takes the digraph active there
            # and the last block's final sample, at T
            final = stepper(graph_at(topology, T) if switching else 0)
            commands[-1] = final(times[-1], out[-1], u[-1], du[-1])[:n]
    return times, out, avg_u, pi_udot, commands


def _forcing(out: np.ndarray, *terms) -> np.ndarray:
    """Write the sum of a @ b over the (a, b) terms into out and return it,
    a few rows at a time, each product below BLAS_THREADED_SIZE."""
    rows = max(1, (BLAS_THREADED_SIZE - 1) // max(a.shape[1] * b.shape[1] for a, b in terms))
    (a0, b0), *rest = terms
    for r in range(0, len(out), rows):
        part = np.matmul(a0[r:r + rows], b0, out=out[r:r + rows])
        for a, b in rest:
            part += a[r:r + rows] @ b
    return out


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
    """Run one continuous protocol and package the stored grid.

    Every protocol steps through ``_block_run``: dc1, and dc2 with a
    ``ThetaGain.constant`` gain, as an affine recurrence, the others by RK4
    on their ``dc*_rhs`` closures, fed the inputs that each block samples
    once on its half-step grid.
    """
    n = state0.n
    has_z = protocol in Z_STATE_PROTOCOLS
    if has_z and state0.z is None:
        raise ValueError(f"protocol {protocol} needs an initial z state")
    y0 = state0.pack() if has_z else np.concatenate((state0.x, state0.v))
    try:
        times, ys, avg_u, pi_udot, commands = _block_run(protocol, topology, inputs, p, y0, h, T)
    except DivergenceError as err:
        err.partial = _package(protocol, *err.partial[:2], n, has_z, p, *err.partial[2:])
        raise
    return _package(protocol, times, ys, n, has_z, p, avg_u, pi_udot, commands)


def _package(protocol, times, ys, n, has_z, p, avg_u, pi_udot, commands=None) -> Trajectory:
    traj = Trajectory(
        times=times,
        x=ys[:, :n],
        v=ys[:, n:2 * n],
        avg_u=avg_u,
        protocol=protocol,
        pi_udot=pi_udot,
        z=ys[:, 2 * n:] if has_z else None,
        commands=commands,
    )
    if protocol == "dc3":
        # one call on every stored time; a constant mask may return one number
        psi = np.broadcast_to(p.psi(times) if p.psi is not None else 0.0, times.shape)
        traj.messages_sample = traj.z + psi[:, None]
    return traj


def simulate_discrete(g: WeightedDigraph, inputs: InputSet, p: AlgorithmParams,
                      z0, v0, delta: float, num_steps: int) -> Trajectory:
    """Iterate the discrete tracker for num_steps samples of stepsize delta.
    One (num_steps + 1, 3n) buffer holds the rows (z_k, v_k, u(k delta)):
    the u columns are filled by one input evaluation.  With
    M = [N | M_u] (``dcdisc_system``), a step is y + y N^T + u_k M_u^T, so
    the iterates are stepped in place, SWEEP_BLOCK rows at a time, by
    writing the forcing u_k M_u^T into row k + 1 (``_forcing``) and
    sweeping the block (``_sweep``).  The rows agree with repeated
    ``dcdisc_step`` calls to roundoff.  The u samples also give avg_u and
    meta["gamma"], sup_k ||Pi_N (u(k+1) - u(k))||; the published outputs
    x = z + u then overwrite them.  Each block is checked once stepped, and
    a divergence's partial trajectory is cut after the first row past the
    limit.  meta also holds delta and ``max_stepsize``'s bound, which is
    sufficient, not necessary: a delta at or above it still runs, and
    ``dacsim run`` says so on stderr.  A nonpositive delta raises."""
    if delta <= 0:
        raise ValueError("stepsize must be positive")
    bound = max_stepsize(p.alpha, p.beta, float(g.out_degrees.max()))
    n = g.n
    if len(inputs) != n:
        raise ValueError(f"state/inputs dimension does not match digraph size {n}")
    ks = np.arange(num_steps + 1)
    times = ks * delta
    rows = np.empty((num_steps + 1, 3 * n))
    inputs.values(times, out=rows[:, 2 * n:])
    meta = {"delta": delta, "bound": bound, "gamma": sampled_gamma(rows[:, 2 * n:])}
    m = dcdisc_system(laplacian(g), p.alpha, p.beta, delta)
    n_t, mu_t = m[:, :2 * n].T, m[:, 2 * n:].T
    ys = rows[:, :2 * n]  # the iterates (z_k, v_k)
    rows[0, :n], rows[0, n:2 * n] = z0, v0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        ns_t = _power_increment(m[:, :2 * n], SWEEP_SUBSTEPS).T
        for k0 in range(0, num_steps, SWEEP_BLOCK):
            k1 = min(k0 + SWEEP_BLOCK, num_steps)
            block = _forcing(ys[k0 + 1:k1 + 1], (rows[k0:k1, 2 * n:], mu_t))
            _sweep(n_t, ns_t, ys, k0, k1)
            peak = np.maximum(block.max(axis=1), -block.min(axis=1))  # max |.|, no copy
            bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
            if bad.size:
                k = k0 + 1 + int(bad[0])
                raise DivergenceError(
                    f"discrete state magnitude {peak[bad[0]]:.3g} at k={k}; stepsize "
                    f"{delta} (bound {bound:.6g}) is too aggressive",
                    t=k * delta,
                    partial=_published(rows[:k + 1], ks[:k + 1], times[:k + 1], n, meta))
    return _published(rows, ks, times, n, meta)


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


def _published(rows, ks, times, n, meta) -> Trajectory:
    """The dcdisc trajectory of buffer rows (z_k, v_k, u_k): avg_u from the
    u columns, which then take the published outputs x = z + u in place.
    The add goes one column at a time: numpy routes a 2-D add between two
    views of one buffer through a temporary copy, a column add does not."""
    xs = rows[:, 2 * n:]
    avg = xs.mean(axis=1)
    for i in range(n):
        xs[:, i] += rows[:, i]
    return Trajectory(times=times, x=xs, v=rows[:, n:2 * n], avg_u=avg, protocol="dcdisc",
                      z=rows[:, :n], k_index=ks, meta=meta)


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
    own."""
    # imported here, not with the package: without cached bytecode its
    # compile would lengthen the set-up of every run, not only of those
    # that write a CSV
    from .csvformat import format_g12

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
    cells = np.empty((min(block, rows), len(header)))
    # glibc's malloc gives the free top of the heap back to the system once
    # it exceeds the trim threshold, and raises that threshold (to twice the
    # chunk) only when it frees a chunk it had mmapped.  Left at its initial
    # 128 KB, it trims format_g12's per-block temporaries (about 1.4 MB)
    # away, and they fault in again on the next block: 2 400 minor faults in
    # static's writer against 35.  Whether some earlier free raised it
    # depends on the whole run, so the writer frees one mmapped chunk
    # first.  np.empty touches none of its pages.
    np.empty(CSV_HEAP_PRIME // 8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for a in range(0, rows, block):
            b = min(a + block, rows)
            out = cells[:b - a]
            for cols, part in fills:
                out[:, cols] = part[a:b]
            np.subtract(traj.x[a:b], traj.avg_u[a:b, None], out=out[:, err])
            fh.write(format_g12(out))
