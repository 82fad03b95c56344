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
from .discrete import dcdisc_advance, dcdisc_system, make_stepsize, zero_system_matrix
from .graphs import WeightedDigraph, laplacian, spectral_summary
from .protocols import Z_STATE_PROTOCOLS, AgentState, AlgorithmParams, dc1_rhs, dc2_rhs, dc3_rhs
from .signals import InputSet, InputTable, pi_norms, pi_udot_series, sampled_gamma
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
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e12
GRID_ALIGN_TOL = 1e-6  # steps a grid time may lie from the nearest whole step
AFFINE_BLOCK = 2048  # steps per forcing block and scan of the affine recurrence
DISCRETE_BLOCK = 1024  # dcdisc iterations between divergence checks
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
        # and simulate_discrete, (times, states, ...) from integrate
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


def integrate(rhs, s0, h: float, T: float, events=()):
    """Classical 4th-order fixed-step integration of ds/dt = rhs(t, s, t_step).

    ``t_step`` is the start of the current step so piecewise-constant
    structure (switching topologies) can be held fixed across a step's
    internal stages.  ``events`` lists times that must sit on the grid.
    Returns (times, states, stage1) where stage1[k] = rhs evaluated at the
    stored point k (the applied command).
    """
    times = _grid(h, T, events)
    steps = times.size - 1
    y = np.asarray(s0, dtype=float).copy()
    out = np.empty((steps + 1,) + y.shape)
    stage1 = np.empty_like(out)
    out[0] = y
    half = 0.5 * h
    sixth = h / 6.0
    for m in range(steps):
        t0 = times[m]
        k1 = rhs(t0, y, t0)
        stage1[m] = k1
        k2 = rhs(t0 + half, y + half * k1, t0)
        k3 = rhs(t0 + half, y + half * k2, t0)
        k4 = rhs(t0 + h, y + h * k3, t0)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[m + 1] = y
        peak = np.max(np.abs(y))
        if not np.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            raise _divergence(peak, times, out, m + 1)
    stage1[steps] = rhs(times[steps], y, times[steps])
    return times, out, stage1


def _step_pieces(sched: SwitchingSchedule, h: float, T: float):
    """(k0, k1, graph index) step ranges of the ``segments_in`` pieces, the
    switching segments both integration paths step."""
    return [(int(round(a / h)), int(round(b / h)), idx) for a, b, idx in sched.segments_in(T)]


def _protocol_rhs(protocol: str, topology, inputs, p: AlgorithmParams, h: float, T: float):
    """Compile the flat RHS for a protocol over a fixed digraph or schedule.
    Returns (rhs(t, y, t_step), events).  Under a schedule, the step from
    t_step runs the digraph of its piece (``_step_pieces``, as on the affine
    path), looked up by step number: graph_at's fmod can round an unrolled
    switch time below the switch.  The factories are looked up in this
    module at call time, so rebinding ``engine.dc*_rhs`` takes effect."""

    def build(lap):
        if protocol == "dc1":
            return dc1_rhs(lap, inputs, p)
        if protocol == "dc1_sat":
            return dc1_rhs(lap, inputs, p, saturate=True)
        if protocol == "dc2":
            return dc2_rhs(lap, inputs, p)
        if protocol == "dc2_sat":
            return dc2_rhs(lap, inputs, p, saturate=True)
        if protocol == "dc3":
            return dc3_rhs(lap, inputs, p)
        raise ValueError(f"unknown continuous protocol {protocol!r}")

    if isinstance(topology, WeightedDigraph):
        f = build(laplacian(topology))
        return (lambda t, y, ts: f(t, y)), ()
    if isinstance(topology, SwitchingSchedule):
        fns = [build(laplacian(g)) for g in topology.graphs]
        step_graph = np.empty(int(round(T / h)) + 1, dtype=np.intp)
        for k0, k1, idx in _step_pieces(topology, h, T):
            step_graph[k0:k1] = idx
        # the last stored point's stage-1 command takes the digraph active there
        step_graph[-1] = graph_at(topology, T)

        def rhs(t, y, ts):
            return fns[step_graph[int(round(ts / h))]](t, y)

        return rhs, topology.boundaries(T)
    raise TypeError("topology must be a WeightedDigraph or a SwitchingSchedule")


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


def _affine_scan(incr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Overwrite the rows of g with w_j = sum_{i<=j} P^(j-i) g_i, P = I + N,
    the recurrence w_j = w_{j-1} + N w_{j-1} + g_j, and return it.  This is
    Hillis-Steele doubling: after the pass of stride s, row j holds the
    terms i > j - 2s.  N_d = P^s - I stays in increment form
    (N_{d+1} = 2 N_d + N_d^2), so I + N is never formed.  Once P^s
    overflows, an exactly zero row still adds nothing to later rows, as in
    stepping the recurrence one row at a time.  Working in place keeps the
    block's temporaries, and the run's peak memory, small."""
    w = g
    nd, s = incr, 1
    while s < len(w):
        prev = w[:-s]
        if np.isfinite(nd).all():
            step = prev @ nd.T
            step += prev
            w[s:] += step
        else:
            live = np.flatnonzero(prev.any(axis=1))
            w[s + live] += prev[live] + prev[live] @ nd.T
        nd = 2.0 * nd + nd @ nd
        s *= 2
    return w


def _affine_run(protocol, topology, inputs: InputSet, p: AlgorithmParams,
                y0: np.ndarray, h: float, T: float):
    """Step the linear protocols as y_{k+1} = y_k + N_sigma y_k + c_k, one
    switching segment at a time, forming c_k in blocks of AFFINE_BLOCK steps
    from one input evaluation on the block's stage times.  Within a block
    from y = y_{k0}, y_{k0+1+j} = y + w_j where w is the scan of
    g_j = c_j + N y (``_affine_scan``).  Returns (times, states, avg_u,
    pi_udot) with the input statistics read off the stage samples at the
    stored times; a divergence's partial trajectory carries them as far as
    it reaches.  A block's divergence check reads its largest and smallest
    entries, and locates the first bad row only when one of them fails."""
    switching = isinstance(topology, SwitchingSchedule)
    if not switching and not isinstance(topology, WeightedDigraph):
        raise TypeError("topology must be a WeightedDigraph or a SwitchingSchedule")
    graphs = topology.graphs if switching else (topology,)
    times = _grid(h, T, topology.boundaries(T) if switching else ())
    pieces = _step_pieces(topology, h, T) if switching else [(0, times.size - 1, 0)]
    systems = {}

    def system(idx):
        if idx not in systems:
            systems[idx] = _rk4_affine(*_affine_system(protocol, laplacian(graphs[idx]), p), h)
        return systems[idx]

    out = np.empty((times.size, y0.size))
    avg_u, pi_udot = np.empty(times.size), np.empty(times.size)
    out[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for k_start, k_end, idx in pieces:
            incr, q0, qh, q1 = system(idx)
            for k0 in range(k_start, k_end, AFFINE_BLOCK):
                k1 = min(k0 + AFFINE_BLOCK, k_end)
                u, du = inputs.eval_all(_half_steps(times[k0:k1 + 1], h))
                # the even stage rows are the stored times k0..k1
                avg_u[k0:k1 + 1] = u[::2].mean(axis=1)
                pi_udot[k0:k1 + 1] = pi_norms(du[::2])
                f = du + p.alpha * u
                c = f[0:-1:2] @ q0.T + f[1::2] @ qh.T + f[2::2] @ q1.T
                y = out[k0]
                c += incr @ y  # g_j, scanned in place
                block = np.add(y, _affine_scan(incr, c), out=out[k0 + 1:k1 + 1])
                # NaN fails both comparisons
                if not (block.max() <= DIVERGENCE_LIMIT and -block.min() <= DIVERGENCE_LIMIT):
                    peak = np.abs(block).max(axis=1)
                    bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))[0]
                    raise _divergence(peak[bad], times, out, k0 + 1 + bad, avg_u, pi_udot)
    return times, out, avg_u, pi_udot


def _table_stats(table: InputTable, rows: int):
    """(avg_u, pi_udot) at the first ``rows`` stored times of a run whose
    inputs were sampled on the half-step grid: the table's even rows, read
    AFFINE_BLOCK rows at a time so no full-size temporary sits beside the
    table and the integration buffers."""
    avg_u, pi_udot = np.empty(rows), np.empty(rows)
    for a in range(0, rows, AFFINE_BLOCK):
        b = min(a + AFFINE_BLOCK, rows)
        avg_u[a:b] = table.u[2 * a:2 * b:2].mean(axis=1)
        pi_udot[a:b] = pi_norms(table.du[2 * a:2 * b:2])
    return avg_u, pi_udot


def simulate_protocol(protocol: str, topology, inputs: InputSet, p: AlgorithmParams,
                      state0: AgentState, h: float, T: float) -> Trajectory:
    """Run one continuous protocol and package the stored grid.

    dc1, and dc2 with a ``ThetaGain.constant`` gain, step as an affine
    recurrence (``_affine_run``).  The other protocols integrate their
    ``dc*_rhs`` closures with ``integrate``, reading the inputs from a table
    sampled once on the half-step grid.
    """
    n = state0.n
    has_z = protocol in Z_STATE_PROTOCOLS
    affine = _is_affine(protocol, p)
    if not affine:
        table = InputTable.sample(inputs, _half_steps(_grid(h, T), h), 0.5 * h)
        rhs, events = _protocol_rhs(protocol, topology, table, p, h, T)
    if has_z and state0.z is None:
        raise ValueError(f"protocol {protocol} needs an initial z state")
    y0 = state0.pack() if has_z else np.concatenate((state0.x, state0.v))
    try:
        if affine:
            times, ys, avg_u, pi_udot = _affine_run(protocol, topology, inputs, p, y0, h, T)
            commands = None
        else:
            times, ys, stage1 = integrate(rhs, y0, h, T, events=events)
            commands = stage1[:, :n]
            avg_u, pi_udot = _table_stats(table, times.size)
    except DivergenceError as err:
        if err.partial is not None:
            pt, py, *stats = err.partial
            if not stats:
                stats = _table_stats(table, pt.size)
            err.partial = _package(protocol, pt, py, n, has_z, p, *stats)
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
    the u columns are filled by one input evaluation, and each iteration is
    ``dcdisc_advance``, one matrix-vector product with the run's
    ``dcdisc_system`` matrix added into the next row.  The u samples also
    give avg_u and meta["gamma"], sup_k ||Pi_N (u(k+1) - u(k))||; the
    published outputs x = z + u then overwrite them.  A divergence's
    partial trajectory is cut after the first row past the limit.  An
    inadmissible delta warns (``make_stepsize``)."""
    step = make_stepsize(delta, p.alpha, p.beta, float(g.out_degrees.max()))
    n = g.n
    if len(inputs) != n:
        raise ValueError(f"state/inputs dimension does not match digraph size {n}")
    ks = np.arange(num_steps + 1)
    times = ks * delta
    rows = np.empty((num_steps + 1, 3 * n))
    inputs.values(times, out=rows[:, 2 * n:])
    meta = {"delta": delta, "bound": step.bound, "gamma": sampled_gamma(rows[:, 2 * n:])}
    m = dcdisc_system(laplacian(g), p.alpha, p.beta, delta)
    ys = rows[:, :2 * n]  # the iterates (z_k, v_k)
    rows[0, :n], rows[0, n:2 * n] = z0, v0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for k0 in range(0, num_steps, DISCRETE_BLOCK):
            k1 = min(k0 + DISCRETE_BLOCK, num_steps)
            for k in range(k0, k1):
                dcdisc_advance(m, rows[k], ys[k + 1])
            block = ys[k0 + 1:k1 + 1]
            peak = np.maximum(block.max(axis=1), -block.min(axis=1))  # max |.|, no copy
            bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
            if bad.size:
                k = k0 + 1 + int(bad[0])
                raise DivergenceError(
                    f"discrete state magnitude {peak[bad[0]]:.3g} at k={k}; stepsize "
                    f"{delta} (bound {step.bound:.6g}) is too aggressive",
                    t=k * delta,
                    partial=_published(rows[:k + 1], ks[:k + 1], times[:k + 1], n, meta))
    return _published(rows, ks, times, n, meta)


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


def fit_decay_rate(times: np.ndarray, err: np.ndarray,
                   floor: float = 1e-8, start_fraction: float = 0.5) -> float:
    """Log-linear decay-rate fit of |err|, restricted to the window between
    start_fraction * |err(0)| and the floor so neither the initial transient
    nor the numerical noise floor contaminates the slope.  The rate is minus
    the closed-form least-squares slope sum((t - tm)(y - ym)) / sum((t - tm)^2)
    of y = log|err| over the window's points at or above the floor."""
    e = np.abs(np.asarray(err, dtype=float))
    e0 = e[0]
    if e0 <= 10 * floor:
        return math.nan
    below = e <= start_fraction * e0
    i0 = int(below.argmax())  # the first True, or 0 when there is none
    if not below[i0]:
        return math.nan
    dead = e[i0:] < floor
    i1 = i0 + int(dead.argmax()) if dead.any() else e.size
    seg_t = times[i0:i1]
    seg_e = e[i0:i1]
    keep = seg_e >= floor
    if keep.sum() < 10:
        return math.nan
    # the least-squares slope of log|err| on t, from centred sums; elementwise
    # products keep the sums off threaded BLAS dot products
    tc = seg_t[keep]
    tc -= tc.mean()
    y = np.log(seg_e[keep])
    y -= y.mean()
    return float(-(tc * y).sum() / (tc * tc).sum())


def error_metrics(traj: Trajectory, inputs: InputSet, tail_start: float,
                  bound_curve=None, offset: float = 0.0,
                  gamma_used: float = 0.0) -> ErrorReport:
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

    if cfg.protocol == "dcdisc":
        num_steps = int(round(cfg.horizon / cfg.delta))
        traj = simulate_discrete(topology, inputs, params, cfg.z0, cfg.v0,
                                 cfg.delta, num_steps)
    else:
        state0 = AgentState(x=cfg.x0, v=cfg.v0,
                            z=cfg.z0 if cfg.protocol in Z_STATE_PROTOCOLS else None)
        traj = simulate_protocol(cfg.protocol, topology, inputs, params,
                                 state0, cfg.step, cfg.horizon)

    curves = {}
    gamma = 0.0
    spectral = spectral_summary(topology) if fixed else None
    offset = -float(np.sum(cfg.v0)) / (params.alpha * len(inputs))

    if cfg.protocol == "dcdisc":
        gamma = traj.meta["gamma"]
        ult = (bnd.ultimate_bound(params.beta, spectral.lambda_hat_2, gamma, delta=cfg.delta)
               if spectral.lambda_hat_2 > 0 else None)
    else:
        series = traj.pi_udot
        gamma = float(series.max())
        lam_hat = spectral.lambda_hat_2 if fixed else cfg.lambda_hat_sigma
        if lam_hat is not None and lam_hat <= 0:
            lam_hat = None  # disconnected graph: no envelope applies
        kappa = None if fixed else cfg.kappa
        ult = (bnd.ultimate_bound(params.beta, lam_hat, gamma, kappa=1.0 if fixed else kappa)
               if lam_hat else None)
        attach = cfg.protocol in ("dc1", "dc1_sat") and lam_hat is not None
        if attach:
            u0, du0 = inputs.eval_all(0.0)
            b = bnd.BoundInputs.from_initial(
                cfg.x0, cfg.v0, u0, du0, params.alpha, params.beta,
                lambda_hat_2=spectral.lambda_hat_2 if fixed else lam_hat,
                gamma=gamma,
                kappa=kappa,
                lambda_hat_sigma=None if fixed else lam_hat)
            s_values = bnd.transient_bound_s(traj.times, b)
            curves["bound_s"] = bnd.BoundCurve(grid=traj.times, values=s_values)
            curves["bound_tracking"] = bnd.tracking_bound_curve(
                traj.times, b, series, transient=s_values)

    if ult is not None:
        # one number seen at every stored time: a read-only view, no array
        curves["bound_ultimate"] = bnd.BoundCurve(
            grid=traj.times, values=np.broadcast_to(ult, traj.times.shape))

    report = error_metrics(
        traj, inputs, cfg.tail_start,
        bound_curve=curves.get("bound_tracking"), offset=offset,
        gamma_used=gamma)
    traj.meta.update({
        "scenario": cfg.name,
        "seed": cfg.seed,
        "ultimate_bound": ult,
        "lambda_hat_2": spectral.lambda_hat_2 if fixed else None,
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
