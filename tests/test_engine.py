import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dacsim
import dacsim.cli
import dacsim.svgplot
from dacsim import csvformat
from dacsim.bounds import BoundCurve
from dacsim.config import load_scenario, validate_scenario
from dacsim.csvformat import format_g12
from dacsim.engine import (
    BLAS_THREADED_SIZE,
    CLIP_WINDOW,
    SWEEP_BLOCK,
    SWEEP_SUBBLOCKS,
    SWEEP_SUBSTEPS,
    DivergenceError,
    Trajectory,
    error_metrics,
    fit_decay_rate,
    integrate,
    pi_udot_series,
    run_scenario,
    simulate_discrete,
    simulate_protocol,
    write_trajectory_csv,
    _forcing,
    _grid,
    _power_increment,
    _rk4_affine,
    _sweep,
    _zero_v_sums,
)
from dacsim.discrete import zero_system_matrix
from dacsim.graphs import laplacian, topology_preset
from dacsim.protocols import (
    Z_STATE_PROTOCOLS,
    AgentState,
    AlgorithmParams,
    ThetaGain,
    dc1_rhs,
    dc2_rhs,
    dc3_rhs,
)
from dacsim.signals import (
    InputSet,
    discrete_disagreement_gamma,
    make_signal,
    preset_scenario,
)
from dacsim.switching import SwitchingSchedule, graph_at
from conftest import case2_schedule, random_balanced_strongly_connected, ring_run

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "dacsim" / "scenarios"


def constants(values):
    return InputSet(signals=tuple(make_signal("constant", value=v) for v in values))


class TestIntegrate:
    def test_linear_decay_oracle(self):
        times, ys, _ = integrate(lambda t, y, ts: -y, np.array([1.0]), h=0.01, T=1.0)
        assert abs(ys[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_zero_field_constant(self):
        times, ys, _ = integrate(lambda t, y, ts: 0.0 * y, np.array([2.0, -1.0]), h=0.1, T=3.0)
        assert np.all(ys == ys[0])

    def test_fourth_order_richardson(self):
        errs = []
        for h in (0.01, 0.005):
            _, ys, _ = integrate(lambda t, y, ts: -y, np.array([1.0]), h=h, T=1.0)
            errs.append(abs(ys[-1, 0] - math.exp(-1.0)))
        assert errs[0] / errs[1] >= 12.0

    def test_batched_states(self):
        y0 = np.ones((3, 5))
        times, ys, k1 = integrate(lambda t, y, ts: -y, y0, h=0.01, T=1.0)
        assert ys.shape == (101, 3, 5) and k1.shape == ys.shape
        assert np.allclose(ys[-1], math.exp(-1.0), atol=1e-8)

    def test_misaligned_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            integrate(lambda t, y, ts: -y, np.array([1.0]), h=0.3, T=1.0)

    def test_misaligned_event_suggests_step(self):
        with pytest.raises(ValueError, match="try h"):
            integrate(lambda t, y, ts: -y, np.array([1.0]), h=0.4, T=2.0, events=[1.0])

    def test_divergence_abort_with_partial(self):
        with pytest.raises(DivergenceError) as excinfo:
            integrate(lambda t, y, ts: 3.0 * y, np.array([1.0]), h=0.01, T=12.0)
        err = excinfo.value
        assert err.t is not None and err.partial is not None
        times_partial, states_partial = err.partial
        assert states_partial.shape[0] == times_partial.shape[0]
        assert np.abs(states_partial[-1]).max() > 1e12

    def test_stage_anchor_passes_step_start(self):
        anchors = []

        def rhs(t, y, ts):
            anchors.append((t, ts))
            return 0.0 * y

        integrate(rhs, np.array([1.0]), h=0.5, T=1.0)
        # four stages per step, all anchored at the step start
        assert anchors[0][1] == anchors[1][1] == anchors[2][1] == anchors[3][1] == 0.0
        assert anchors[4][1] == 0.5


class TestZeroSystem:
    def test_equilibrium_reached(self):
        # dc1 with zero inputs is the zero system (y = x, w = v)
        rng = np.random.default_rng(0)
        for _ in range(4):
            x0 = rng.uniform(-3, 3, 6)
            v0 = rng.uniform(-3, 3, 6)
            traj, _, _ = ring_run(6, {"alpha": 1.0, "beta": 1.0},
                                  {"x0": x0.tolist(), "v0": v0.tolist()}, horizon=40.0, step=5e-3)
            assert np.abs(traj.x[-1] + v0.sum() / 6.0).max() <= 1e-7
            assert np.abs(traj.v[-1] - v0.mean()).max() <= 1e-7


class TestErrorMetrics:
    def make_traj(self, times, errors, avg=None):
        avg = np.zeros_like(times) if avg is None else avg
        x = errors + avg[:, None]
        return Trajectory(times=times, x=x, v=np.zeros_like(x), avg_u=avg, protocol="dc1")

    def test_perfect_tracking(self):
        times = np.linspace(0, 10, 101)
        traj = self.make_traj(times, np.zeros((101, 3)))
        report = error_metrics(traj, tail_start=5.0)
        assert np.all(report.per_agent_sup_error_tail == 0.0)

    def test_constant_offset(self):
        times = np.linspace(0, 10, 101)
        traj = self.make_traj(times, np.full((101, 2), 0.3))
        report = error_metrics(traj, tail_start=5.0)
        assert np.allclose(report.per_agent_sup_error_tail, 0.3)

    def test_synthetic_rate_recovery(self):
        times = np.linspace(0, 40, 4001)
        errors = (2.0 * np.exp(-0.5 * times))[:, None]
        traj = self.make_traj(times, errors)
        report = error_metrics(traj, tail_start=30.0)
        assert report.fitted_rate[0] == pytest.approx(0.5, abs=0.01)

    def test_empty_tail_rejected(self):
        times = np.linspace(0, 10, 11)
        traj = self.make_traj(times, np.zeros((11, 1)))
        with pytest.raises(ValueError, match="tail"):
            error_metrics(traj, tail_start=10.0)

    def test_fit_decay_rate_on_noisy_floor(self):
        times = np.linspace(0, 60, 6001)
        err = 5.0 * np.exp(-0.3 * times) + 1e-12
        assert fit_decay_rate(times, err) == pytest.approx(0.3, abs=0.01)


class TestNoRowLoops:
    """The Python-level work of the envelope, the SVG writer and the
    trajectory packaging does not grow with the number of rows: their
    loops over the stored samples are numpy passes.  The events are counted
    with ``sys.settrace``, which sees every call and every executed line;
    ``sys.setprofile`` sees only calls, so it would miss a loop whose body
    calls nothing, as the envelope's step-by-step loop did."""

    TARGETS = ((dacsim.bounds, "tracking_bound_curve"), (dacsim.svgplot, "render_svg"),
               (dacsim.engine, "_package"))

    def events(self, monkeypatch, tmp_path, name, horizon):
        counts = dict.fromkeys(attr for _, attr in self.TARGETS)

        def counted(fn, attr):
            def run(*args, **kwargs):
                n = 0

                def tracer(frame, event, arg):
                    nonlocal n
                    n += 1
                    return tracer

                previous = sys.gettrace()
                sys.settrace(tracer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    sys.settrace(previous)
                    counts[attr] = (counts[attr] or 0) + n
            return run

        with monkeypatch.context() as patch:
            for module, attr in self.TARGETS:
                patch.setattr(module, attr, counted(getattr(module, attr), attr))
            raw = json.loads((SCENARIOS / f"{name}.json").read_text())
            raw.update(horizon=horizon, tail_start=0.75 * horizon)
            code, _ = dacsim.cli.execute(validate_scenario(raw, name=name),
                                         tmp_path / str(horizon), svg=True, quiet=True)
        assert code == 0
        return counts

    # 601 and 1201 rows: fewer than render_svg's 1500 points, so the SVG
    # plots every row and its points double too
    @pytest.mark.parametrize("name,horizon", [("static", 1.2), ("masked", 0.6)])
    def test_events_do_not_grow_with_the_rows(self, monkeypatch, tmp_path, name, horizon):
        csvformat._tables()  # built once, by the CSV writer before the SVG
        short = self.events(monkeypatch, tmp_path, name, horizon)
        long = self.events(monkeypatch, tmp_path, name, 2 * horizon)
        assert short["_package"] and short["render_svg"]
        assert (short["tracking_bound_curve"] is None) == (name == "masked")
        # 600 more rows may add one scan pass and a few axis ticks, not a
        # loop over the rows
        for attr, count in short.items():
            assert (long[attr] or 0) - (count or 0) <= 40, (attr, short, long)


class TestRunScenario:
    def test_deterministic_csv(self, tmp_path):
        cfg = load_scenario(SCENARIOS / "sampled_bias.json")
        paths = []
        for run in range(2):
            traj, report, curves = run_scenario(cfg)
            path = tmp_path / f"run{run}.csv"
            write_trajectory_csv(path, traj, curves)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_metrics_and_curves_for_dc1(self):
        cfg = load_scenario(SCENARIOS / "static.json")
        traj, report, curves = run_scenario(cfg)
        assert set(curves) == {"bound_s", "bound_tracking", "bound_ultimate"}
        assert report.bound_violations == 0
        assert report.conservation_residual <= 1e-8
        assert traj.meta["ultimate_bound"] == 0.0  # static inputs: gamma = 0
        assert np.all(curves["bound_ultimate"].values == 0.0)

    def test_discrete_scenario_round(self):
        cfg = load_scenario(SCENARIOS / "sampled_bias.json")
        traj, report, _ = run_scenario(cfg)
        assert traj.k_index is not None
        assert traj.times[1] - traj.times[0] == cfg.delta
        assert report.conservation_residual <= 1e-12
        assert traj.meta["ultimate_bound"] is not None

    def test_grid_refinement_invariance(self):
        # halving the step moves the reported tail metrics by well under 1%
        base = json.loads((SCENARIOS / "case2.json").read_text())
        base["horizon"] = 20.0
        base["tail_start"] = 15.0
        sups = []
        for step in (1e-3, 5e-4):
            base["step"] = step
            cfg = validate_scenario(base, name="case2_trunc")
            _, report, _ = run_scenario(cfg)
            sups.append(report.per_agent_sup_error_tail)
        assert np.abs(sups[0] - sups[1]).max() <= 0.01 * np.abs(sups[1]).max()

    def test_switching_ultimate_bound_is_the_envelope_limit(self):
        # ramp inputs: ||Pi_N du|| is a constant gamma, so the envelope tends
        # to kappa gamma / (beta lambda_hat_sigma), up to the trapezoid rule's
        # factor x coth(x), x = beta lambda_hat_sigma h / 2 (1 + 3e-7 here)
        raw = json.loads((SCENARIOS / "case1.json").read_text())
        raw["inputs"] = {"signals": [
            {"kind": "linear", "params": {"slope": slope, "intercept": 1.0}}
            for slope in (0.5, -1.0, 2.0, 0.0, 1.5, -0.25)]}
        raw["params"].update(kappa=2.5, lambda_hat_sigma=0.2)
        raw.update(horizon=200.0, step=0.01, tail_start=150.0)
        traj, _, curves = run_scenario(validate_scenario(raw, name="case1_ramps"))
        gamma = float(traj.pi_udot.max())
        assert traj.pi_udot.min() == pytest.approx(gamma, rel=1e-12)
        assert traj.meta["ultimate_bound"] == pytest.approx(2.5 * gamma / 0.2, rel=1e-15)
        assert curves["bound_tracking"].values[-1] == pytest.approx(
            traj.meta["ultimate_bound"], rel=1e-6)

    def test_switching_run_has_no_envelope_without_kappa(self):
        cfg = load_scenario(SCENARIOS / "case1.json")
        traj, report, curves = run_scenario(cfg)
        assert curves == {}
        assert traj.meta["ultimate_bound"] is None


class TestCsvSchema:
    def test_continuous_header_and_precision(self, tmp_path):
        inputs = constants([1.0, 3.0])
        st = AgentState(x=[0.0, 0.0], v=[0.0, 0.0])
        from conftest import two_node_pair
        traj = simulate_protocol("dc1", two_node_pair(), inputs,
                                 AlgorithmParams(1.0, 1.0), st, h=0.25, T=1.0)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2,avg,err1,err2"
        first = lines[1].split(",")
        assert first[5] == "2"  # avg of {1, 3}
        assert len(lines) == 6

    def test_discrete_header_includes_iteration(self, tmp_path):
        cfg = load_scenario(SCENARIOS / "sampled_bias.json")
        traj, _, _ = run_scenario(cfg)
        path = tmp_path / "d.csv"
        write_trajectory_csv(path, traj)
        header = path.read_text().splitlines()[0]
        assert header.startswith("k,t,x1")
        assert ",z1," in header

    def test_twelve_significant_digits(self, tmp_path):
        times = np.array([0.0, 1.0])
        x = np.array([[math.pi], [math.e]])
        traj = Trajectory(times=times, x=x, v=np.zeros_like(x),
                          avg_u=np.zeros(2), protocol="dc1")
        path = tmp_path / "p.csv"
        write_trajectory_csv(path, traj)
        assert "3.14159265359" in path.read_text()


class TestSwitchingIntegration:
    def test_boundaries_must_sit_on_grid(self):
        cfg_data = json.loads((SCENARIOS / "case2.json").read_text())
        sched = case2_schedule()
        inputs = preset_scenario("case2")
        st = AgentState(x=np.zeros(6), v=np.zeros(6))
        with pytest.raises(ValueError, match="boundary"):
            simulate_protocol("dc1", sched, inputs,
                              AlgorithmParams(3.0, 10.0), st, h=0.3, T=12.0)

    def test_dense_schedule_rejected_before_it_is_unrolled(self):
        # 2e6 switches of a 1e-4 period to T = 100: unrolling them before
        # the check took 6.8 s and 81 MB traced
        sched = SwitchingSchedule(graphs=case2_schedule().graphs[:2], period=1e-4,
                                  segments=((0.0, 0), (5e-5, 1)))
        st = AgentState(x=np.zeros(6), v=np.zeros(6))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="switching boundary 5e-05 is not a multiple"):
                simulate_protocol("dc1", sched, preset_scenario("case2"),
                                  AlgorithmParams(3.0, 10.0), st, h=0.01, T=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


# ---------------------------------------------------------------------------
# affine recurrence vs the closure right-hand sides
# ---------------------------------------------------------------------------

def closure_run(protocol, topology, inputs, p, y0, h, T, clips=None):
    """The RK4 closure path from the public pieces: dc1_rhs, dc2_rhs or
    dc3_rhs integrated by ``integrate``, each stage fed ``InputSet.eval_all``
    at its own time, so it shares no input sampling with the run.  dc3_rhs
    forms its Laplacian terms from the messages z + psi(t), as the wire
    carries them.  For dc2_sat a ``clips`` list gets, stage by stage, which
    agents' x commands pass their limits."""
    def fed(lap):
        if protocol == "dc1":
            f = dc1_rhs(lap, p)
        elif protocol == "dc3":
            f = dc3_rhs(lap, p)
        else:
            f = dc2_rhs(lap, p, saturate=protocol == "dc2_sat")
            free = dc2_rhs(lap, p)

        def rhs(t, y):
            u, du = inputs.eval_all(t)
            if clips is not None:
                clips.append(np.abs(free(t, y, u, du)[:len(u)]) > p.sat_limits)
            return f(t, y, u, du)
        return rhs

    if isinstance(topology, SwitchingSchedule):
        fns = [fed(laplacian(g)) for g in topology.graphs]
        return integrate(lambda t, y, ts: fns[graph_at(topology, ts)](t, y), y0, h, T,
                         events=topology.boundaries(T))
    f = fed(laplacian(topology))
    return integrate(lambda t, y, ts: f(t, y), y0, h, T)


def assert_paths_agree(protocol, topology, inputs, p, x0, v0, h, T, z0=None, clips=None):
    traj = simulate_protocol(protocol, topology, inputs, p,
                             AgentState(x=x0, v=v0, z=z0), h=h, T=T)
    affine = np.hstack([traj.x, traj.v] + ([traj.z] if z0 is not None else []))
    y0 = np.concatenate([x0, v0] + ([z0] if z0 is not None else []))
    times, closure, stage1 = closure_run(protocol, topology, inputs, p, y0, h, T, clips)
    np.testing.assert_array_equal(traj.times, times)
    scale = max(1.0, float(np.abs(closure).max()))
    gap = float(np.abs(affine - closure).max())
    assert gap <= 1e-12 * scale, (gap, scale)
    # the x command from the stored rows, with the digraph the closure ran
    # from t_k: the information phase's A_sigma (x, v) or A_sigma (z, v),
    # plus f(t_k) = du + alpha u (E's rows are I), and for dc2 and dc2_sat
    # the motion term -theta (x - z), clamped for dc2_sat
    n = len(x0)
    u, du = inputs.eval_all(times)
    commands = du + p.alpha * u
    info = np.hstack((traj.x, traj.v) if z0 is None else (traj.z, traj.v))
    switching = isinstance(topology, SwitchingSchedule)
    graphs = topology.graphs if switching else (topology,)
    index = np.array([graph_at(topology, t) if switching else 0 for t in times])
    for idx in np.unique(index):
        rows = index == idx
        a = zero_system_matrix(laplacian(graphs[idx]), p.alpha, p.beta)
        commands[rows] += info[rows] @ a[:n].T
    if z0 is not None:
        commands -= np.array([p.theta.at(t) for t in times]) * (traj.x - traj.z)
    if protocol == "dc2_sat":
        commands = np.clip(commands, -p.sat_limits, p.sat_limits)
    assert float(np.abs(commands - stage1[:, :n]).max()) <= 1e-11 * scale
    return traj


def random_inputs(rng, n):
    return InputSet(signals=tuple(
        make_signal("sum-of-terms", terms=[
            make_signal("sine", amplitude=float(rng.uniform(0.1, 3.0)),
                        frequency=float(rng.uniform(0.1, 2.0))),
            make_signal("constant", value=float(rng.uniform(-2.0, 2.0)))])
        for _ in range(n)))


def random_topology(rng, n, switching):
    if not switching:
        return random_balanced_strongly_connected(rng, n)
    graphs = tuple(random_balanced_strongly_connected(rng, n) for _ in range(3))
    return SwitchingSchedule(graphs=graphs, period=1.5, segments=((0.0, 0), (0.5, 1), (1.0, 2)))


def sine_theta(base, amp=0.3, freq=2.0):
    """A theta that is not constant, checked against its bounds at every
    time it is read, built as the config's named sine schedule is."""
    shape = make_signal("sum-of-terms", terms=[make_signal("constant", value=1.0),
                                               make_signal("sine", amplitude=amp, frequency=freq)])
    return ThetaGain(base=base, shape=shape, lower=base * (1.0 - amp), upper=base * (1.0 + amp))


def stepped_theta(base, before, after, at):
    """theta = base * before for t < at and base * after from t = at on,
    checked against bounds base * before."""
    shape = make_signal("sampled-piecewise-constant", values=[before, after], hold=at)
    return ThetaGain(base=base, shape=shape, lower=base * before, upper=base * before)


def stage_clips(clips):
    """The clip flags of ``closure_run`` as (steps x 4 stages x agents)."""
    return np.array(clips[:len(clips) // 4 * 4]).reshape(-1, 4, len(clips[0]))


class TestAffinePath:
    # horizons cut to two schedule periods (case1), past the last switch
    # (case2), or a few time constants (fixed digraphs); sat's 3 000 steps
    # span two blocks
    @pytest.mark.parametrize("fname,horizon", [
        ("case1.json", 16.0), ("case2.json", 12.0), ("static.json", 8.0),
        ("offset_sines.json", 8.0), ("rate.json", 8.0), ("sat.json", 3.0)])
    def test_bundled_scenarios(self, fname, horizon):
        raw = json.loads((SCENARIOS / fname).read_text())
        raw.update(horizon=horizon, tail_start=0.75 * horizon)
        cfg = validate_scenario(raw, name=fname)
        has_z = cfg.protocol in Z_STATE_PROTOCOLS
        assert_paths_agree(cfg.protocol, cfg.build_topology(), cfg.build_inputs(),
                           cfg.build_params(), cfg.x0, cfg.v0, cfg.step, cfg.horizon,
                           z0=cfg.z0 if has_z else None)

    @pytest.mark.parametrize("fname", ["case1.json", "case2.json", "offset_sines.json",
                                       "rate.json", "static.json"])
    def test_bundled_runs_keep_the_increment_form(self, fname):
        # stepping by the increment keeps sum(v) to roundoff of the
        # increments over the whole run (measured at most 1.9e-13, on case2,
        # and 3.0e-13 before the v rows of N and N_s summed to zero); N_s
        # taken as a matrix power of I + N drifts by 1.1e-12 on rate
        _, report, _ = run_scenario(load_scenario(SCENARIOS / fname))
        assert report.conservation_residual <= 1e-12

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30), st.booleans(),
           st.sampled_from(["dc1", "dc2"]))
    def test_random_balanced_digraphs(self, seed, switching, protocol):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        topology = random_topology(rng, n, switching)
        inputs = random_inputs(rng, n)
        alpha, beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        theta = ThetaGain.constant(rng.uniform(0.1, 5.0, n)) if protocol == "dc2" else None
        x0, v0 = rng.uniform(-3.0, 3.0, (2, n))
        assert_paths_agree(protocol, topology, inputs,
                           AlgorithmParams(alpha, beta, theta=theta), x0, v0, 0.01, 3.0,
                           z0=x0.copy() if protocol == "dc2" else None)

    def test_period_not_exact_in_binary(self):
        # 3 * 0.3 rounds to 0.8999999999999999, whose fmod by 0.3 falls just
        # short of the period: the piece from there on must still run graph 0
        rng = np.random.default_rng(5)
        graphs = tuple(random_balanced_strongly_connected(rng, 4) for _ in range(3))
        topology = SwitchingSchedule(graphs=graphs, period=0.3,
                                     segments=((0.0, 0), (0.1, 1), (0.2, 2)))
        inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0 + i, frequency=2.0)
                                        for i in range(4)))
        x0, v0 = rng.uniform(-3.0, 3.0, (2, 4))
        assert_paths_agree("dc1", topology, inputs, AlgorithmParams(1.0, 2.0),
                           x0, v0, 0.01, 3.0)

    def test_scalar_constant_theta(self, ring6):
        # ThetaGain.constant(2.0) has shape (1,) and serves all six agents
        x0 = np.linspace(-1.0, 1.0, 6)
        assert_paths_agree("dc2", ring6, preset_scenario("case2"),
                           AlgorithmParams(3.0, 10.0, theta=ThetaGain.constant(2.0)),
                           x0, np.zeros(6), 0.01, 2.0, z0=x0.copy())

    def test_equal_bounds_callable_still_checked(self, ring6):
        # equal bounds with a shape of its own: theta leaves them at t = 1
        theta = stepped_theta(np.ones(6), 1.0, 2.0, at=1.0)
        state = AgentState(x=np.zeros(6), v=np.zeros(6), z=np.zeros(6))
        with pytest.raises(ValueError, match="leaves its declared bounds"):
            simulate_protocol("dc2", ring6, preset_scenario("case2"),
                              AlgorithmParams(3.0, 10.0, theta=theta), state, h=0.01, T=2.0)

    def test_divergence_comes_before_a_later_theta_check(self, ring6):
        # the closure run passes the limit near t = 3; theta leaves its bounds
        # at t = 50, later in the same block, and must not pre-empt that
        theta = stepped_theta(np.ones(6), 1.0, 2.0, at=50.0)
        state = AgentState(x=np.zeros(6), v=np.zeros(6), z=np.zeros(6))
        h, T = 0.25, 100.0
        assert T / h <= SWEEP_BLOCK
        with pytest.raises(DivergenceError) as err:
            simulate_protocol("dc2", ring6, preset_scenario("case2"),
                              AlgorithmParams(3.0, 10.0, theta=theta), state, h=h, T=T)
        assert err.value.t < 50.0

    def test_divergence_same_on_both_paths(self, ring6):
        inputs = preset_scenario("case2")
        p = AlgorithmParams(3.0, 10.0)
        h, T = 0.25, 10.0  # h beta lambda_max = 5, outside RK4's stability interval
        with pytest.raises(DivergenceError) as affine:
            simulate_protocol("dc1", ring6, inputs, p,
                              AgentState(x=np.zeros(6), v=np.zeros(6)), h=h, T=T)
        with pytest.raises(DivergenceError) as closure:
            closure_run("dc1", ring6, inputs, p, np.zeros(12), h, T)
        times, states = closure.value.partial
        partial = affine.value.partial
        assert affine.value.t == closure.value.t
        assert len(partial.times) == len(times) < int(T / h)
        state = np.hstack((partial.x, partial.v))
        np.testing.assert_allclose(state, states, rtol=1e-9)
        assert np.abs(state[-1]).max() > 1e12 >= np.abs(state[:-1]).max()

    def test_divergence_of_one_sign(self, ring6):
        # every agent at x = -1 with zero inputs: the consensus mode decays at
        # rate alpha, and RK4 at h alpha = 3 multiplies it by 1.375 a step, so
        # x grows negative only.  It passes -1e12 at t = 21.75; the horizon
        # ends three steps later, while v's roundoff is still far below the
        # limit, so a check of the block's largest entry alone would miss it
        p = AlgorithmParams(12.0, 1.0)
        h, T = 0.25, 22.5
        with pytest.raises(DivergenceError) as affine:
            simulate_protocol("dc1", ring6, constants([0.0] * 6), p,
                              AgentState(x=-np.ones(6), v=np.zeros(6)), h=h, T=T)
        with pytest.raises(DivergenceError) as closure:
            closure_run("dc1", ring6, constants([0.0] * 6), p,
                        np.concatenate((-np.ones(6), np.zeros(6))), h, T)
        partial = affine.value.partial
        assert affine.value.t == closure.value.t
        assert partial.x.max() < 0.0
        state = np.hstack((partial.x, partial.v))
        assert np.abs(state[-1]).max() > 1e12 >= np.abs(state[:-1]).max()

    def test_divergence_cli_exit_and_partial(self, tmp_path, capsys):
        from dacsim.cli import EXIT_DIVERGED, main
        data = json.loads((SCENARIOS / "static.json").read_text())
        data.update(name="unstable", step=0.25, horizon=10.0, tail_start=5.0,
                    params={"alpha": 3.0, "beta": 10.0})
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_DIVERGED
        assert "DIVERGED" in capsys.readouterr().out
        text = (tmp_path / "out" / "unstable.partial.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("t,x1") and 2 < len(lines) < 42
        with pytest.raises(DivergenceError) as err:
            run_scenario(load_scenario(path))
        assert_same_text(text, per_cell_csv(err.value.partial, {}))  # its last row is past 1e12

    def test_closure_path_takes_the_pieces_of_the_affine_path(self):
        # fmod(0.42, 0.37) = 0.04999999999999999, so graph_at puts the step
        # from t = 0.42 on digraph 0, where its piece (midpoint 0.425) runs 1.
        # dc1_sat with limits that no command reaches is dc1 on the closure path
        rng = np.random.default_rng(5)
        graphs = tuple(random_balanced_strongly_connected(rng, 4) for _ in range(3))
        topology = SwitchingSchedule(graphs=graphs, period=0.37,
                                     segments=((0.0, 0), (0.05, 1), (0.06, 2)))
        inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0 + i, frequency=2.0)
                                        for i in range(4)))
        p = AlgorithmParams(1.0, 2.0, sat_limits=1e300)
        x0, v0 = rng.uniform(-3.0, 3.0, (2, 4))
        runs = [simulate_protocol(protocol, topology, inputs, p, AgentState(x=x0, v=v0),
                                  h=0.01, T=3.0)
                for protocol in ("dc1", "dc1_sat")]
        affine, closure = (np.hstack((r.x, r.v)) for r in runs)
        scale = max(1.0, float(np.abs(closure).max()))
        assert float(np.abs(affine - closure).max()) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# dc2 and dc2_sat: the information phase on dc1's sweep, the motion phase
# per agent
# ---------------------------------------------------------------------------

class TestMotionPhase:
    @settings(max_examples=16, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30), st.booleans(),
           st.sampled_from(["dc2", "dc2_sat"]), st.booleans())
    def test_matches_the_closure(self, seed, switching, protocol, constant):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        topology = random_topology(rng, n, switching)
        inputs = random_inputs(rng, n)
        alpha, beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        gains = rng.uniform(0.1, 5.0, n)
        theta = ThetaGain.constant(gains) if constant else sine_theta(gains)
        x0, v0, z0 = rng.uniform(-3.0, 3.0, (3, n))
        p = AlgorithmParams(alpha, beta, theta=theta)
        h, T = 0.01, 3.0
        if protocol == "dc2_sat":
            # limits below the largest free command of each agent, so the
            # saturated run clips somewhere: until its first clip it is the
            # free run
            free = assert_paths_agree("dc2", topology, inputs, p, x0, v0, h, T, z0=z0)
            command = np.abs(np.diff(free.x, axis=0) / h).max(axis=0)
            p.sat_limits = command * rng.uniform(0.4, 0.9, n)
        clips = [] if protocol == "dc2_sat" else None
        assert_paths_agree(protocol, topology, inputs, p, x0, v0, h, T, z0=z0, clips=clips)
        if clips is not None:
            # some agent's clip pattern switches
            clips = stage_clips(clips)
            assert (clips.any(axis=(0, 1)) & ~clips.all(axis=(0, 1))).any()

    def test_a_step_that_clips_only_inside(self):
        # agent 5's free command peaks at 10.0315 at stage 2 of step 76; its
        # next largest stage value anywhere is 10.0163, and stages 1, 3 and
        # 4 of that step read 10.0138, 9.9996 and 9.9878: its limit
        # between clips that step at its midpoint only
        n = 6
        inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0 + 0.5 * i,
                                                    frequency=1.0 + 0.3 * i) for i in range(n)))
        p = AlgorithmParams(1.0, 2.0, theta=ThetaGain.constant(2.0),
                            sat_limits=[100.0, 100.0, 100.0, 100.0, 10.024, 100.0])
        h, T, ring = 0.05, 4.0, topology_preset("fig1a")
        clips = []
        assert_paths_agree("dc2_sat", ring, inputs, p, np.zeros(n), np.zeros(n), h, T,
                           z0=np.zeros(n), clips=clips)
        clips = stage_clips(clips).any(axis=2)
        inside = ~clips[:, 0] & ~clips[:, 3] & (clips[:, 1] | clips[:, 2])
        assert np.flatnonzero(inside).tolist() == [76]

    def test_across_block_seams(self, ring6):
        # 2 100 steps: two blocks, with clipping on and off (366 clipped
        # steps), for a gain read on every block's grid; test_bundled_scenarios
        # runs sat's constant one over a seam
        inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0 + 0.5 * i,
                                                    frequency=1.0 + 0.3 * i) for i in range(6)))
        p = AlgorithmParams(1.0, 2.0, theta=sine_theta(np.full(6, 2.0)), sat_limits=8.0)
        h, T = 0.01, 21.0
        assert T / h > SWEEP_BLOCK
        x0 = np.linspace(-1.0, 1.0, 6)
        clips = []
        assert_paths_agree("dc2_sat", ring6, inputs, p, x0, np.zeros(6), h, T,
                           z0=np.zeros(6), clips=clips)
        clips = stage_clips(clips)
        assert (clips.any(axis=(0, 1)) & ~clips.all(axis=(0, 1))).any()

    @pytest.mark.parametrize("switching", [False, True])
    @pytest.mark.parametrize("protocol", ["dc2", "dc2_sat"])
    def test_information_phase_is_dc1(self, protocol, switching, ring6):
        # (z, v) never reads x and is never clamped: bit for bit the (x, v)
        # of dc1 from (z0, v0), over a block seam
        inputs = preset_scenario("case1")
        topology = case2_schedule() if switching else ring6
        rng = np.random.default_rng(3)
        x0, v0, z0 = rng.uniform(-3.0, 3.0, (3, 6))
        h, T = 0.01, 25.0
        assert T / h > SWEEP_BLOCK
        p = AlgorithmParams(1.0, 2.0, theta=sine_theta(np.full(6, 2.0)), sat_limits=1.0)
        motion = simulate_protocol(protocol, topology, inputs, p,
                                   AgentState(x=x0, v=v0, z=z0), h=h, T=T)
        info = simulate_protocol("dc1", topology, inputs, AlgorithmParams(1.0, 2.0),
                                 AgentState(x=z0, v=v0), h=h, T=T)
        assert np.array_equal(motion.z, info.x)
        assert np.array_equal(motion.v, info.v)
        assert not np.array_equal(motion.x, motion.z)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30), st.booleans())
    def test_motion_filter_closed_form(self, seed, switching):
        # unclamped, with a constant gain, x - z = R(-h theta)^k (x0 - z0),
        # R(s) = 1 + s + s^2/2 + s^3/6 + s^4/24 (measured 9.5e-15 on rate
        # on the former 3n affine path); twice the gain is far off
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        topology = random_topology(rng, n, switching)
        gains = rng.uniform(0.1, 5.0, n)
        x0, v0, z0 = rng.uniform(-3.0, 3.0, (3, n))
        h, T = 0.01, 3.0
        traj = simulate_protocol("dc2", topology, random_inputs(rng, n),
                                 AlgorithmParams(*rng.uniform(0.5, 3.0, 2),
                                                 theta=ThetaGain.constant(gains)),
                                 AgentState(x=x0, v=v0, z=z0), h=h, T=T)
        k = np.arange(len(traj.times))[:, None]
        scale = max(1.0, float(np.abs(np.hstack((traj.x, traj.v, traj.z))).max()))

        def gap(theta):
            s = -h * theta
            return float(np.abs(traj.x - traj.z
                                - (1 + s + s ** 2 / 2 + s ** 3 / 6 + s ** 4 / 24) ** k
                                * (x0 - z0)).max())

        assert gap(gains) <= 1e-12 * scale
        assert gap(2.0 * gains) > 1e-6 * scale

    def test_divergence_from_the_motion_phase_alone(self):
        # h theta = 3, past RK4's real stability limit of 2.785: e = x - z
        # grows by R(-3) = 1.375 a step while (z, v) stays bounded.  The
        # step-at-a-time closure run diverges at the same row
        inputs = preset_scenario("case2")
        p = AlgorithmParams(3.0, 1.0, theta=ThetaGain.constant(300.0), psi=np.sin)
        state = AgentState(x=np.ones(6), v=np.zeros(6), z=np.zeros(6))
        for protocol in ("dc2", "dc3"):
            with pytest.raises(DivergenceError) as motion:
                simulate_protocol(protocol, topology_preset("fig1a"), inputs, p, state,
                                  h=0.01, T=2.0)
            with pytest.raises(DivergenceError) as closure:
                closure_run(protocol, topology_preset("fig1a"), inputs, p, state.pack(), 0.01, 2.0)
            times, states = closure.value.partial
            assert motion.value.t == closure.value.t == pytest.approx(0.87)
            last = motion.value.partial
            assert len(last.times) == len(times) == 88
            assert np.abs(last.x[-1]).max() > 1e12 >= np.abs(np.hstack((last.v, last.z))).max()
            assert np.abs(last.x[:-1]).max() <= 1e12
            np.testing.assert_allclose(np.hstack((last.x, last.v, last.z)), states, rtol=1e-9)

    @pytest.mark.parametrize("leaves", [1.5, 0.5])
    def test_theta_check_in_a_motion_phase_divergence(self, leaves):
        # the run above with a theta that leaves its bounds at t = leaves:
        # after x passed the limit at t = 0.87, in the same block, the
        # divergence comes first, as in the closure run, which reads theta
        # at every stage; before it, the theta check does
        theta = stepped_theta(np.full(6, 300.0), 1.0, 2.0, at=leaves)
        p = AlgorithmParams(3.0, 1.0, theta=theta, psi=np.sin)
        state = AgentState(x=np.ones(6), v=np.zeros(6), z=np.zeros(6))
        args = (topology_preset("fig1a"), preset_scenario("case2"), p)
        for protocol in ("dc2", "dc3"):
            run = partial(simulate_protocol, protocol, *args, state, h=0.01, T=2.0)
            oracle = partial(closure_run, protocol, *args, state.pack(), 0.01, 2.0)
            if leaves > 0.87:
                with pytest.raises(DivergenceError) as err:
                    run()
                with pytest.raises(DivergenceError) as closure:
                    oracle()
                assert err.value.t == closure.value.t == pytest.approx(0.87)
                assert len(err.value.partial.times) == len(closure.value.partial[0]) == 88
            else:
                for f in (run, oracle):
                    with pytest.raises(ValueError, match=r"theta\(t=0\.5\d*\) leaves its declared bounds"):
                        f()

    def test_sum_of_v_held_on_large_states(self, monkeypatch):
        # sat.json's |v| reaches 160.  The step-at-a-time closure drifts
        # sum(v) by 9.6e-13 over its 39 900 steps; with the v rows of the
        # stepping matrices summing to their rounding, the sweep drifted 1.04e-11
        cfg = load_scenario(SCENARIOS / "sat.json")
        assert run_scenario(cfg)[1].conservation_residual <= 1.5e-12
        monkeypatch.setattr(dacsim.engine, "_zero_v_sums", lambda m, lap: m)
        assert run_scenario(cfg)[1].conservation_residual > 5e-12

    @pytest.mark.parametrize("balanced", [True, False])
    def test_v_rows_sum_to_zero_on_balanced_digraphs(self, balanced):
        rng = np.random.default_rng(5)
        lap = laplacian(random_balanced_strongly_connected(rng, 7)).copy()
        if not balanced:
            lap[0, 1] -= 0.25
            lap[0, 0] += 0.25
        incr = _rk4_affine(zero_system_matrix(lap, 2.0, 3.0), np.eye(14, 7), 0.01)[0]
        for m in (incr, _power_increment(incr, SWEEP_SUBSTEPS)):
            zeroed = _zero_v_sums(m.copy(), lap)
            sums = np.array([math.fsum(col) for col in zeroed[7:].T])
            if balanced:
                assert (np.abs(sums) <= 0.5 * np.spacing(np.abs(zeroed[7:]).max(axis=0))).all()
                np.testing.assert_allclose(zeroed, m, rtol=0, atol=1e-15 * np.abs(m).max())
            else:
                np.testing.assert_array_equal(zeroed, m)


# ---------------------------------------------------------------------------
# dc3 on dc2's path vs the wire arithmetic
# ---------------------------------------------------------------------------

class TestWireArithmetic:
    """dc3 steps dc2's dynamics, since L (z + psi 1) = L z in exact
    arithmetic, and forms its messages z + psi(t) only for output.  The
    wire form, ``closure_run`` through dc3_rhs, takes its Laplacian terms
    from the rounded fl(z + psi), so the two runs differ by that rounding
    alone, which grows with the mask's magnitude."""

    @pytest.mark.parametrize("c", [1e3, 1e6, 1e9])
    def test_run_is_the_wire_arithmetic_to_its_rounding(self, c, ring6):
        # masked.json's dynamics with psi = c + sin t over 5 s.  Each
        # fl(z_i + psi) is off by at most half an ulp of max|z + psi|, and
        # L, whose rows have absolute sums of 2 on the ring, turns that into
        # a slope error of at most one ulp, which the stable (z, v) dynamics
        # average out: the state gap measured 0.041-0.050 ulp at c = 1e3, 1e6
        # and 1e9 (0.011-0.015 at h = 1e-3).  The bound is a quarter ulp.  A
        # mask with a distinct offset c + i per agent, handed to the oracle
        # alone, does not cancel through L: a gap of 3.2, 1e7-1e13 ulp
        inputs = preset_scenario("case2")
        u0 = inputs.values(0.0)
        state = AgentState(x=u0, v=np.zeros(6), z=u0.copy())
        theta = ThetaGain.constant(1.0)
        h, T = 0.01, 5.0
        traj = simulate_protocol("dc3", ring6, inputs,
                                 AlgorithmParams(1.0, 1.0, theta=theta, psi=lambda t: c + np.sin(t)),
                                 state, h=h, T=T)
        run = np.hstack((traj.x, traj.v, traj.z))
        bound = 0.25 * np.spacing(np.abs(traj.messages_sample).max())

        def gap(psi):
            p = AlgorithmParams(1.0, 1.0, theta=theta, psi=psi)
            return float(np.abs(run - closure_run("dc3", ring6, inputs, p, state.pack(), h, T)[1]).max())

        assert gap(lambda t: c + np.sin(t)) <= bound
        assert gap(lambda t: c + np.arange(6.0) + np.sin(t)) > 1e6 * bound


# ---------------------------------------------------------------------------
# every smooth bundled protocol vs scipy's DOP853
# ---------------------------------------------------------------------------

def schedule_pieces(topology, T):
    """(start, end, weights) of each constant stretch of [0, T], unrolled
    from the schedule's own segments and period."""
    if not isinstance(topology, SwitchingSchedule):
        return [(0.0, T, topology.weights)]
    period = topology.period or 0.0
    starts = [(k * period + s, idx) for k in range(int(T // period) + 1 if period else 1)
              for s, idx in topology.segments if k * period + s < T]
    ends = [s for s, _ in starts[1:]] + [T]
    return [(a, b, topology.graphs[idx].weights) for (a, idx), b in zip(starts, ends)]


class TestIndependentIntegrator:
    """The bundled runs of dc1, dc2 and dc3 against scipy's DOP853 on the
    differential equations written out below, from the digraphs' weights,
    integrated piece by piece between switches as criterion 5b does.  The
    oracle shares the scenario's parsed inputs, gains and initial state with
    the run, and nothing else: no Laplacian, stepping, forcing, motion phase
    or schedule lookup.  dc3's
    Laplacian terms read the messages z + psi(t).  sat.json and sat_dc1.json
    are left out: a clipped command has kinks where it meets its limit, and
    DOP853's error control assumes a smooth right-hand side.  sampled_bias.json
    runs the discrete recurrence, which TestFusedStep checks."""

    # horizons past case1's first period and case2's last switch, or a few
    # time constants.  The gaps are RK4's truncation: measured 1.1e-9 of the
    # state's scale on rate (h theta = 0.025), 6.6e-10 on case2 (beta = 10)
    # and 1.2e-12 to 2.5e-12 on the others
    @pytest.mark.parametrize("fname,horizon", [
        ("case1.json", 10.0), ("case2.json", 12.0), ("static.json", 4.0),
        ("offset_sines.json", 4.0), ("rate.json", 4.0), ("masked.json", 4.0)])
    def test_bundled_scenarios(self, fname, horizon):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        raw = json.loads((SCENARIOS / fname).read_text())
        raw.update(horizon=horizon, tail_start=0.75 * horizon)
        cfg = validate_scenario(raw, name=fname)
        traj, _, _ = run_scenario(cfg)
        inputs, p, n = cfg.build_inputs(), cfg.build_params(), cfg.n
        motion = cfg.protocol != "dc1"

        def rhs(t, y, lap):
            u, du = inputs.eval_all(t)
            info, v = (y[2 * n:] if motion else y[:n]), y[n:2 * n]
            lz = lap @ (info + p.psi(t) if p.psi is not None else info)
            dinfo = du - p.alpha * (info - u) - p.beta * lz - v
            dv = p.alpha * p.beta * lz
            if not motion:
                return np.concatenate((dinfo, dv))
            return np.concatenate((-p.theta.at(t) * (y[:n] - info) + dinfo, dv, dinfo))

        h = cfg.step
        states = np.empty((len(traj.times), (3 if motion else 2) * n))
        states[0] = np.concatenate([cfg.x0, cfg.v0] + ([cfg.z0] if motion else []))
        for a, b, w in schedule_pieces(cfg.build_topology(), horizon):
            lap = np.diag(w.sum(axis=1)) - w
            idx = np.arange(round(a / h) + 1, round(b / h) + 1)
            sol = solve_ivp(rhs, (a, b), states[idx[0] - 1], method="DOP853", args=(lap,),
                            rtol=1e-12, atol=1e-12, t_eval=traj.times[idx])
            states[idx] = sol.y.T
        run = np.hstack([traj.x, traj.v] + ([traj.z] if motion else []))
        scale = max(1.0, float(np.abs(states).max()))
        assert float(np.abs(run - states).max()) <= 1e-8 * scale


class TestObservedOrder:
    """RK4's order, observed on dc1 against the exact solution.  With
    constant inputs dc1 is d/dt (x, v) = A (x, v) + (alpha u, 0), so the
    augmented state (x, v, 1) solves a linear system whose flow is
    scipy's expm, from A written out from fig1a's weights."""

    def test_order_four_on_static(self):
        expm = pytest.importorskip("scipy.linalg").expm
        cfg = load_scenario(SCENARIOS / "static.json")
        p, n, T = cfg.build_params(), cfg.n, 2.0
        w = np.asarray(cfg.build_topology().weights, dtype=float)
        lap = np.diag(w.sum(axis=1)) - w
        eye = np.eye(n)

        def exact(alpha):
            m = np.zeros((2 * n + 1, 2 * n + 1))
            m[:2 * n, :2 * n] = np.block([[-alpha * eye - p.beta * lap, -eye],
                                         [alpha * p.beta * lap, np.zeros((n, n))]])
            m[:n, -1] = alpha * cfg.build_inputs().values(0.0)
            return (expm(T * m) @ np.concatenate((cfg.x0, cfg.v0, [1.0])))[:2 * n]

        def orders(solution):
            gaps = []
            for h in (0.4, 0.2, 0.1, 0.05):
                traj = simulate_protocol("dc1", cfg.build_topology(), cfg.build_inputs(), p,
                                         AgentState(x=cfg.x0, v=cfg.v0), h=h, T=T)
                gaps.append(float(np.abs(np.concatenate((traj.x[-1], traj.v[-1])) - solution).max()))
            return np.log2(np.array(gaps[:-1]) / gaps[1:])

        # measured 4.33, 4.16 and 4.08; the error at h = 0.05 (2.8e-7) is
        # far above roundoff
        observed = orders(exact(p.alpha))
        assert (np.abs(observed[1:] - 4.0) <= 0.25).all(), observed
        # negative control: against the flow at 1.001 alpha the error stalls
        assert (orders(exact(1.001 * p.alpha))[1:] < 1.0).all()


# ---------------------------------------------------------------------------
# the blocked sweep vs the step-by-step affine recurrence
# ---------------------------------------------------------------------------

def sequential_block(incr, c, y):
    """The recurrence one step at a time, the blocked sweep's reference:
    rows y_{k0+1}, ..., y_{k0+B} from y = y_{k0}."""
    out = np.empty_like(c)
    for j in range(len(c)):
        y = y + (incr @ y + c[j])
        out[j] = y
    return out


def assert_sweep_matches_sequential(rng, n, length):
    """A block of ``length`` rows of a drawn dc1 system on n agents, its
    forcing written by ``_forcing`` and stepped by ``_sweep`` from a drawn
    row k0 of a larger buffer, against ``sequential_block``."""
    g = random_balanced_strongly_connected(rng, n)
    alpha, beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
    a = zero_system_matrix(laplacian(g), alpha, beta)
    h = 0.01
    incr, q0, qh, q1 = _rk4_affine(a, np.vstack((np.eye(n), np.zeros((n, n)))), h)
    f = rng.uniform(-3.0, 3.0, (2 * length + 1, n))
    c = f[0:-1:2] @ q0.T + f[1::2] @ qh.T + f[2::2] @ q1.T
    y = rng.uniform(-3.0, 3.0, a.shape[0])
    ref = sequential_block(incr, c, y)
    k0 = int(rng.integers(0, 3))
    ys = np.full((k0 + length + 2, a.shape[0]), np.nan)  # a row past k1 stays untouched
    ys[k0] = y
    _forcing(ys[k0 + 1:k0 + length + 1], (f[0:-1:2], q0.T), (f[1::2], qh.T), (f[2::2], q1.T))
    _sweep(incr.T, _power_increment(incr, SWEEP_SUBSTEPS).T, ys, k0, k0 + length)
    gap = float(np.abs(ys[k0 + 1:k0 + length + 1] - ref).max())
    assert gap <= 1e-12 * max(1.0, float(np.abs(ref).max())), gap
    assert np.isnan(ys[k0 + length + 1]).all()


class RecordedProducts(np.ndarray):
    """A matrix that records the size m k n of every product it takes part
    in, in the class-level ``sizes``."""

    sizes = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        if ufunc is np.matmul:
            a, b = plain[:2]
            RecordedProducts.sizes.append(
                (a.shape[-2] if a.ndim > 1 else 1) * a.shape[-1] * (b.shape[-1] if b.ndim > 1 else 1))
        return getattr(ufunc, method)(*plain, **kwargs)


class TestAffineScan:
    """``_sweep`` steps the one affine recurrence of the engine, both the RK4
    step of dc1 and of the information phase of dc2 and dc2_sat, and
    dcdisc's (tested in test_discrete.py)."""

    @settings(max_examples=28, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([1, SWEEP_SUBSTEPS - 1, SWEEP_SUBSTEPS, SWEEP_SUBSTEPS + 1,
                            SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1]))
    def test_matches_sequential_recurrence(self, seed, length):
        rng = np.random.default_rng(seed)
        assert_sweep_matches_sequential(rng, int(rng.integers(2, 7)), length)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=9, max_value=48))
    @example(0, 9)
    @example(0, 12)
    @example(0, 46)
    @example(0, 47)
    def test_sliced_passes_match_sequential_recurrence(self, seed, n):
        # dc1 on n agents has 2n state columns over a full block: from 12
        # agents its (n x 2n) Q matrices force it in several row slices, and
        # from 46 the sweep's stacks of SWEEP_SUBBLOCKS rows go in slices too
        assert (BLAS_THREADED_SIZE - 1) // (12 * 24) < SWEEP_BLOCK
        assert (BLAS_THREADED_SIZE - 1) // 92 ** 2 < SWEEP_SUBBLOCKS
        assert_sweep_matches_sequential(np.random.default_rng(seed), n, SWEEP_BLOCK)

    @pytest.mark.parametrize("case", [
        "case1.json", "case2.json", "offset_sines.json", "rate.json", "static.json", "sat.json",
        pytest.param(("dcdisc", 40), id="discrete_wide"),
        pytest.param(("dcdisc", 46), id="dcdisc_46"), pytest.param(("dc1", 47), id="dc1_47"),
        pytest.param(("dc2_sat", 23), id="dc2_sat_23")])
    def test_every_product_stays_below_the_threaded_size(self, case, monkeypatch):
        # every product of the sweep, its N_s and its forcing, and of dc2_sat's
        # stage slopes, takes one of the recorded matrices: the bundled widths
        # on a full block and a partial one, dcdisc at discrete_wide's 40
        # agents, the first widths whose stacks of SWEEP_SUBBLOCKS rows go in
        # row slices, dcdisc on 46 agents and dc1 on 47 (92 and 94 state
        # columns), and the first dc2_sat width whose CLIP_WINDOW rows of
        # stage slopes go in row slices
        assert (BLAS_THREADED_SIZE - 1) // 46 ** 2 < CLIP_WINDOW <= (BLAS_THREADED_SIZE - 1) // 44 ** 2
        RecordedProducts.sizes = []
        record = lambda m: m.view(RecordedProducts)  # noqa: E731
        rk4 = dacsim.engine._rk4_affine
        monkeypatch.setattr(dacsim.engine, "_rk4_affine",
                            lambda *args: tuple(record(m) for m in rk4(*args)))
        system = dacsim.engine.dcdisc_system
        monkeypatch.setattr(dacsim.engine, "dcdisc_system", lambda *args: record(system(*args)))
        zero = dacsim.engine.zero_system_matrix
        monkeypatch.setattr(dacsim.engine, "zero_system_matrix", lambda *args: record(zero(*args)))
        steps = SWEEP_BLOCK + SWEEP_BLOCK // 2
        if isinstance(case, tuple):
            protocol, n = case
            rng = np.random.default_rng(n)
            g = random_balanced_strongly_connected(rng, n)
            inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0, frequency=0.1 * i)
                                            for i in range(n)))
            if protocol == "dcdisc":
                p = AlgorithmParams(1.0, 0.5)
                delta = 0.5 / (p.beta * float(g.out_degrees.max()))
                simulate_discrete(g, inputs, p, np.zeros(n), np.zeros(n), delta, steps)
            else:
                p = AlgorithmParams(1.0, 0.5, theta=ThetaGain.constant(2.0), sat_limits=0.4)
                state = AgentState(x=np.ones(n), v=np.zeros(n), z=np.zeros(n))
                simulate_protocol(protocol, g, inputs, p, state, h=0.01, T=steps * 0.01)
        else:
            raw = json.loads((SCENARIOS / case).read_text())
            horizon = steps * raw["step"]
            raw.update(horizon=horizon, tail_start=0.75 * horizon)
            run_scenario(validate_scenario(raw, name=case))
        assert RecordedProducts.sizes
        assert max(RecordedProducts.sizes) < BLAS_THREADED_SIZE

    def test_segments_shorter_than_a_block(self):
        # pieces of 5, 1 and 31 steps, so every block ends at a switch; the
        # times are exact in binary, so graph_at on the closure path takes
        # each step's digraph without rounding
        rng = np.random.default_rng(13)
        graphs = tuple(random_balanced_strongly_connected(rng, 5) for _ in range(3))
        h = 1.0 / 64.0
        topology = SwitchingSchedule(graphs=graphs, period=37 * h,
                                     segments=((0.0, 0), (5 * h, 1), (6 * h, 2)))
        inputs = InputSet(signals=tuple(make_signal("sine", amplitude=1.0 + i, frequency=0.7)
                                        for i in range(5)))
        x0, v0 = rng.uniform(-3.0, 3.0, (2, 5))
        assert_paths_agree("dc1", topology, inputs, AlgorithmParams(1.5, 2.0),
                           x0, v0, h, 3.0)

    def test_divergence_inside_first_block_after_exact_zeros(self, ring6):
        # the state stays exactly 0 until the inputs switch on at t = 200
        # (row 800), long after P^512 has overflowed: the zero rows must not
        # turn into 0 * inf = nan, so the first bad row is the one integrate finds
        inputs = InputSet(signals=tuple(
            make_signal("sampled-piecewise-constant", values=[0.0, 1.0 + i], hold=200.0)
            for i in range(6)))
        p = AlgorithmParams(3.0, 10.0)
        h, T = 0.25, 400.0
        assert T / h < SWEEP_BLOCK
        with pytest.raises(DivergenceError) as affine:
            simulate_protocol("dc1", ring6, inputs, p,
                              AgentState(x=np.zeros(6), v=np.zeros(6)), h=h, T=T)
        with pytest.raises(DivergenceError) as closure:
            closure_run("dc1", ring6, inputs, p, np.zeros(12), h, T)
        assert affine.value.t == closure.value.t > 200.0
        partial = affine.value.partial
        assert len(partial.times) == len(closure.value.partial[0])
        assert not np.any(np.hstack((partial.x, partial.v))[:800])


# ---------------------------------------------------------------------------
# input statistics taken from the samples the run stepped on
# ---------------------------------------------------------------------------

def assert_stats_are_the_inputs(traj, inputs):
    """avg_u and pi_udot equal one whole-run evaluation at the stored times,
    bit for bit."""
    assert np.array_equal(traj.avg_u, inputs.values(traj.times).mean(axis=1))
    assert np.array_equal(traj.pi_udot, pi_udot_series(inputs, traj.times)[0])


def traced(run):
    """(result, retained, peak): run()'s result and the traced memory it
    leaves allocated while the result is held, and at its peak."""
    tracemalloc.start()
    try:
        result = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def transient_arrays(run):
    """Peak minus retained traced memory of run(), whose result starts with
    its Trajectory, in (rows x n) float64 arrays."""
    result, current, peak = traced(run)
    return (peak - current) / result[0].x.nbytes


class TestRunStatistics:
    # h = 0.01 over T = 25 is 2500 steps: past one SWEEP_BLOCK, so the
    # block seams of both paths are covered.  The schedule stays on the
    # ring from t = 10, so its runs go to T = 35 for a piece that spans a seam
    @pytest.mark.parametrize("protocol,switching", [
        ("dc1", False), ("dc1", True), ("dc2", False), ("dc1_sat", False), ("dc1_sat", True),
        ("dc3", False), ("dc3", True)])
    def test_match_a_whole_run_evaluation(self, protocol, switching, ring6):
        h, T = 0.01, 35.0 if switching else 25.0
        assert (T - 10.0 if switching else T) / h > SWEEP_BLOCK
        inputs = preset_scenario("case1")
        x0 = inputs.values(0.0)
        p = AlgorithmParams(1.0, 2.0,
                            theta=ThetaGain.constant(2.0) if protocol in Z_STATE_PROTOCOLS else None,
                            sat_limits=4.0 if protocol == "dc1_sat" else None,
                            psi=np.sin if protocol == "dc3" else None)
        state = AgentState(x=x0, v=np.zeros(6),
                           z=x0.copy() if protocol in Z_STATE_PROTOCOLS else None)
        topology = case2_schedule() if switching else ring6
        traj = simulate_protocol(protocol, topology, inputs, p, state, h=h, T=T)
        assert len(traj.times) == int(T / h) + 1
        assert_stats_are_the_inputs(traj, inputs)

    @pytest.mark.parametrize("protocol,alpha,beta,h,rows", [
        pytest.param("dc1", 3.0, 10.0, 0.25, (2, 400), id="dc1"),
        pytest.param("dc3", 3.0, 10.0, 0.25, (2, 400), id="dc3"),
        pytest.param("dc3", 279.0, 0.1, 0.01, (SWEEP_BLOCK + 1, 4500), id="dc3_late"),
        pytest.param("dc1_sat", 3.0, 10.0, 0.25, (2, 400), id="dc1_sat"),
        pytest.param("dc1_sat", 279.0, 0.1, 0.01, (SWEEP_BLOCK + 1, 4500), id="dc1_sat_late")])
    def test_partial_trajectory_keeps_them(self, protocol, alpha, beta, h, rows, ring6):
        # affine (dc1), motion (dc3) and closure (dc1_sat, with limits that
        # no command reaches) divergences inside the first block; at
        # h alpha = 2.79, just past RK4's stability interval, the consensus
        # mode of (x, v), or of (z, v), grows by 0.7% a step and passes the
        # limit in a later block
        inputs = preset_scenario("case2")
        p = AlgorithmParams(alpha, beta, theta=ThetaGain.constant(1.0), sat_limits=1e300,
                            psi=np.cos)
        state = AgentState(x=np.zeros(6), v=np.zeros(6), z=np.zeros(6))
        with pytest.raises(DivergenceError) as err:
            simulate_protocol(protocol, ring6, inputs, p, state, h=h, T=100.0)
        partial = err.value.partial
        assert rows[0] < len(partial.times) < rows[1]
        assert_stats_are_the_inputs(partial, inputs)

    def test_discrete_gamma_from_the_run_samples(self):
        # 600 differences: three GAMMA_BLOCK blocks
        rng = np.random.default_rng(8)
        g = random_balanced_strongly_connected(rng, 7)
        inputs = InputSet(signals=tuple(
            make_signal("sampled-piecewise-constant", values=list(rng.normal(size=40)),
                        hold=float(rng.uniform(0.5, 2.0)))
            for _ in range(7)))
        p = AlgorithmParams(1.0, 0.5)
        traj = simulate_discrete(g, inputs, p, np.zeros(7), np.zeros(7), 0.05, 600)
        assert traj.pi_udot is None
        assert traj.meta["gamma"] > 0.0
        assert traj.meta["gamma"] == discrete_disagreement_gamma(inputs, 0.05, 600)
        cfg = load_scenario(SCENARIOS / "sampled_bias.json")
        _, report, _ = run_scenario(cfg)
        assert report.gamma_used == discrete_disagreement_gamma(
            cfg.build_inputs(), cfg.delta, int(round(cfg.horizon / cfg.delta)))

    @pytest.mark.parametrize("fname,horizon,limit", [("case1.json", 20.0, 1.1),
                                                     ("sat.json", 10.0, 1.6),
                                                     ("sampled_bias.json", 2000.0, 0.8)])
    def test_no_full_size_temporaries_after_stepping(self, fname, horizon, limit):
        # the blocks of the run are the only large transients left.  Every block
        # refills one (u, du) buffer, and the affine forcing overwrites u, so
        # the peak is one block's input evaluation and forcing: measured 0.885
        # on case1 and 1.42 on sat, whose motion phase tests CLIP_WINDOW rows of
        # stage slopes at a time (1.57 with 512, 2.49 with a whole block).
        # Holding the previous block's arrays while evaluating the next gave
        # 1.22 and 2.05 (sat on the closure path, 1.34 once that was fixed), and
        # a whole-run input table 4.51 on sat.  dcdisc steps its 4000 rows (two
        # SWEEP_BLOCK blocks) in place in sub-blocks and derives z = x - u a
        # column at a time, so only the metrics' per-column arrays are left
        # (measured 0.67)
        raw = json.loads((SCENARIOS / fname).read_text())
        raw.update(horizon=horizon, tail_start=0.75 * horizon)
        if raw["protocol"] == "dcdisc":
            assert horizon / raw["params"]["delta"] > SWEEP_BLOCK
        cfg = validate_scenario(raw, name=fname)
        assert transient_arrays(lambda: run_scenario(cfg)) <= limit

    @pytest.mark.parametrize("fname", ["case1.json", "static.json"])
    def test_affine_run_keeps_only_what_it_prints(self, fname):
        # the state matrix, the times and input statistics, and the curves
        # that own their values: no run keeps the stage-1 commands
        # (rows x n), and the constant ultimate bound is a broadcast number
        raw = json.loads((SCENARIOS / fname).read_text())
        raw.update(horizon=20.0, tail_start=15.0)
        cfg = validate_scenario(raw, name=fname)
        (traj, _, curves), kept, _ = traced(lambda: run_scenario(cfg))
        arrays = [traj.x.base, traj.times, traj.avg_u, traj.pi_udot]
        arrays += [c.values for c in curves.values() if c.values.strides != (0,)]
        assert len(arrays) == (6 if fname == "static.json" else 4)
        # 64 KB for the report and the small arrays: measured 4.2-12 KB,
        # where the commands took 469 KB (static) and 938 KB (case1)
        assert kept <= sum(a.nbytes for a in arrays) + 2 ** 16, kept

    def test_discrete_run_keeps_one_buffer(self):
        # the (x, v, z) rows are the trajectory's storage: the inputs are
        # evaluated into the z columns and z = x - u overwrites u, so only
        # blocks of the gamma differences and the sweep's stacks are left
        # (measured 0.44 arrays, as when (z, v) was stepped; 0.515 with
        # separate z, v and u arrays and a whole-block |.| in the check)
        rng = np.random.default_rng(5)
        n = 30
        g = random_balanced_strongly_connected(rng, n)
        inputs = InputSet(signals=tuple(
            make_signal("sampled-piecewise-constant", values=list(rng.normal(size=40)),
                        hold=float(rng.uniform(0.5, 2.0)))
            for _ in range(n)))
        p = AlgorithmParams(1.0, 0.5)
        assert transient_arrays(lambda: (simulate_discrete(
            g, inputs, p, np.zeros(n), np.zeros(n), 0.05, 2000),)) <= 0.52
        raw = json.loads((SCENARIOS / "sampled_bias.json").read_text())
        raw.update(horizon=400.0, tail_start=300.0)
        cfg = validate_scenario(raw, name="sampled_bias.json")
        # run_scenario adds the metrics' per-column transients (0.83; 0.81
        # when (z, v) was stepped, 1.49 before)
        assert transient_arrays(lambda: run_scenario(cfg)) <= 1.5


class TestErrorMetricsByColumn:
    def test_matches_the_whole_matrix_formulas(self):
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 30.0, 3001)
        rates = rng.uniform(0.2, 1.0, 5)
        errors = rng.uniform(-2.0, 2.0, 5) * np.exp(-np.outer(times, rates))
        errors += rng.normal(0.0, 1e-10, errors.shape)  # below the fit floor
        avg = np.sin(times)
        x = errors + avg[:, None]
        traj = Trajectory(times=times, x=x, v=rng.normal(size=x.shape), avg_u=avg,
                          protocol="dc1")
        offset = 0.01
        curve = BoundCurve(values=np.full(times.size, 0.5))
        report = error_metrics(traj, tail_start=20.0,
                               bound_curve=curve, offset=offset)
        full = x - avg[:, None]
        tail = times >= 20.0
        assert np.array_equal(report.per_agent_sup_error_tail, np.abs(full[tail]).max(axis=0))
        assert np.array_equal(report.fitted_rate,
                              [fit_decay_rate(times, full[:, i]) for i in range(5)])
        np.testing.assert_allclose(report.fitted_rate, rates, rtol=0.05)
        shifted = np.abs(full - offset).max(axis=1)
        assert report.bound_violations == int(np.sum(shifted > 0.5 * (1.0 + 1e-6))) > 0
        vsum = traj.v.sum(axis=1)
        assert report.conservation_residual == float(np.abs(vsum - vsum[0]).max())

    @pytest.mark.parametrize("err,expected", [
        (np.full(50, 3.0), "nan"),                      # never falls to half its start
        (np.zeros(50), "nan"),                          # starts at the floor
        (3.0 * np.exp(-0.4 * np.arange(200) * 0.1), 0.4),  # never reaches the floor
        (np.r_[3.0 * np.exp(-np.arange(100) * 0.1), np.zeros(100)], 1.0)])  # hits it
    def test_fit_window_edges(self, err, expected):
        rate = fit_decay_rate(np.arange(err.size) * 0.1, err)
        if expected == "nan":
            assert math.isnan(rate)
        else:
            assert rate == pytest.approx(expected, rel=1e-9)


def polyfit_rate(times, err, floor=1e-8, start_fraction=0.5):
    """The fit window with np.polyfit's slope: the oracle for the closed-form
    least-squares slope of fit_decay_rate."""
    e = np.abs(err)
    if e[0] <= 10 * floor:
        return math.nan
    below = np.flatnonzero(e <= start_fraction * e[0])
    if below.size == 0:
        return math.nan
    i0 = below[0]
    dead = np.flatnonzero(e[i0:] < floor)
    i1 = i0 + dead[0] if dead.size else e.size
    seg_t, seg_e = times[i0:i1], e[i0:i1]
    keep = seg_e >= floor
    if keep.sum() < 10:
        return math.nan
    return -np.polyfit(seg_t[keep], np.log(seg_e[keep]), 1)[0]


class TestFitDecayRate:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(20, 5000),
           rate=st.floats(1e-4, 5.0), noise=st.floats(0.0, 0.5),
           span=st.floats(1.0, 100.0))
    def test_matches_polyfit_on_noisy_exponentials(self, seed, rows, rate, noise, span):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, span, rows)
        amp = rng.uniform(-3.0, 3.0)
        err = amp * np.exp(-rate * times) * np.exp(rng.normal(0.0, noise, rows))
        err *= rng.choice([-1.0, 1.0], rows)
        expected = polyfit_rate(times, err)
        got = fit_decay_rate(times, err)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("err", [
        np.full(50, 1e-7),                                 # |err(0)| within 10 floors
        np.full(50, 3.0),                                  # never falls to half its start
        np.r_[3.0, np.full(49, 2.0)],                      # likewise, just above half
        np.r_[3.0, 1.0, 0.5, 0.2, np.zeros(47)],           # three points before the floor
        np.r_[3.0 * np.exp(-np.arange(1, 12) * 2.0), np.zeros(40)]])  # eight in the window
    def test_nan_branches_match_polyfit_window(self, err):
        times = np.arange(err.size) * 0.1
        assert math.isnan(polyfit_rate(times, err))
        assert math.isnan(fit_decay_rate(times, err))


# ---------------------------------------------------------------------------
# blockwise CSV writer vs per-cell formatting
# ---------------------------------------------------------------------------

def per_cell_csv(traj, curves):
    """The writer's previous formulation: every cell through format(., ".12g"),
    integers through str."""
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".12g")

    n = traj.n
    cols = [("k", traj.k_index)] if traj.k_index is not None else []
    cols.append(("t", traj.times))
    for prefix, part in (("x", traj.x), ("v", traj.v), ("z", traj.z)):
        if part is not None:
            cols += [(f"{prefix}{i + 1}", part[:, i]) for i in range(n)]
    cols.append(("avg", traj.avg_u))
    cols += [(f"err{i + 1}", traj.errors[:, i]) for i in range(n)]
    cols += [(name, curves[name].values)
             for name in ("bound_s", "bound_tracking", "bound_ultimate") if name in curves]
    lines = [",".join(name for name, _ in cols)]
    lines += [",".join(fmt(col[r]) for _, col in cols) for r in range(len(traj.times))]
    return "\n".join(lines) + "\n"


def assert_same_text(got, expected):
    """Fail unless two CSV texts (str or bytes) are byte for byte equal,
    naming their lengths and their first differing line: pytest's own diff
    of texts of a few MB runs for minutes."""
    got, expected = (t.encode() if isinstance(t, str) else t for t in (got, expected))
    if got != expected:
        a, b = got.split(b"\n"), expected.split(b"\n")
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"{len(got)} bytes, {len(expected)} expected; line {line + 1} reads "
                    f"{a[line][:200] if line < len(a) else 'nothing'!r}, expected "
                    f"{b[line][:200] if line < len(b) else 'nothing'!r}", pytrace=False)


def special_table(rows):
    """A dcdisc-shaped table of 17 columns with the special values in x:
    signed zeros and infinities, nan, 1e+-300 and a 12-digit integer."""
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, np.nan, -np.inf,
                        0.1, 123456789012.0])
    x = rng.normal(0.0, 1e3, (rows, 3))
    x[:special.size, 0] = special
    x[-special.size:, 2] = special[::-1]
    traj = Trajectory(times=np.arange(rows) * 0.01, x=x, v=rng.normal(size=(rows, 3)),
                      z=rng.normal(size=(rows, 3)), avg_u=rng.normal(size=rows),
                      protocol="dcdisc", k_index=np.arange(rows))
    curves = {"bound_ultimate": BoundCurve(values=np.full(rows, 1e-300)),
              "bound_s": BoundCurve(values=np.abs(rng.normal(size=rows)))}
    return traj, curves


class TestBlockwiseCsv:
    def test_matches_per_cell_formatting(self, tmp_path):
        traj, curves = special_table(4999)
        path = tmp_path / "w.csv"
        write_trajectory_csv(path, traj, curves)
        assert_same_text(path.read_bytes(), per_cell_csv(traj, curves))  # 4999 rows: eleven blocks

    @pytest.mark.parametrize("blocks", [csvformat.FORK_BLOCKS - 1, csvformat.FORK_BLOCKS,
                                        csvformat.FORK_BLOCKS + 1])
    def test_two_processes_match_per_cell_formatting(self, blocks, tmp_path, monkeypatch):
        # 17 columns; the last block is short.  Around the fork threshold,
        # with the helper's blocks odd in number and even
        traj, curves = special_table((blocks - 1) * (dacsim.engine.CSV_CELLS // 17) + 100)
        helper = csvformat.helper_allowed(blocks)
        assert helper == (blocks >= csvformat.FORK_BLOCKS
                          and csvformat.helper_allowed(csvformat.FORK_BLOCKS))
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        write_trajectory_csv(tmp_path / "two.csv", traj, curves)
        text = (tmp_path / "two.csv").read_bytes()
        assert_same_text(text, per_cell_csv(traj, curves))
        assert len(forks) == helper
        monkeypatch.delattr(os, "fork")  # the one-process path
        write_trajectory_csv(tmp_path / "one.csv", traj, curves)
        assert_same_text((tmp_path / "one.csv").read_bytes(), text)
        assert len(forks) == helper
        assert sorted(os.listdir(tmp_path)) == ["one.csv", "two.csv"]

    def test_a_whole_bundled_run_matches_per_cell_formatting(self, tmp_path, monkeypatch):
        # masked.json at its own 20 s horizon: 20 001 rows of 27 columns in
        # 67 blocks, so a forked helper writes the last 34
        traj, _, curves = run_scenario(load_scenario(SCENARIOS / "masked.json"))
        blocks = -(-len(traj.times) // (dacsim.engine.CSV_CELLS // 27))
        assert blocks == 67 >= csvformat.FORK_BLOCKS
        if not csvformat.helper_allowed(blocks):
            pytest.skip("this platform writes in one process")
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        write_trajectory_csv(tmp_path / "masked.csv", traj, curves)
        assert forks == [1]
        assert_same_text((tmp_path / "masked.csv").read_bytes(), per_cell_csv(traj, curves))

    def test_pool_workers_write_in_one_process(self, monkeypatch):
        import multiprocessing

        allowed = csvformat.helper_allowed(10 ** 6)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert not csvformat.helper_allowed(10 ** 6)
        monkeypatch.delitem(sys.modules, "multiprocessing")
        assert csvformat.helper_allowed(10 ** 6) == allowed

    @pytest.mark.parametrize("failure, reported", [
        ("raises", "exited with status 1"), ("killed", "was killed by signal 9"),
        ("ends early", "ended early"), ("fails at its exit", "exited with status 3")])
    def test_helper_failure_is_an_io_error(self, failure, reported, tmp_path, monkeypatch,
                                           capfd):
        # static.json writes 79 blocks; the helper formats the last 40
        if not csvformat.helper_allowed(79):
            pytest.skip("this platform writes in one process")
        parent = os.getpid()
        format_g12, exit = csvformat.format_g12, os._exit

        def failing(block):
            if os.getpid() != parent:
                if failure == "raises":
                    raise RuntimeError("a fault in the helper")
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if failure == "ends early":
                    exit(0)
            return format_g12(block)

        monkeypatch.setattr(csvformat, "format_g12", failing)
        if failure == "fails at its exit":  # after sending every block
            monkeypatch.setattr(os, "_exit", lambda code: exit(3))
        code, line = dacsim.cli.execute(load_scenario(SCENARIOS / "static.json"), tmp_path,
                                        quiet=True)
        assert code == dacsim.cli.EXIT_IO
        assert line == f"static: failed to write outputs: the CSV writer's helper process {reported}"
        assert capfd.readouterr().err == ""  # no traceback from either process
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # the helper was reaped

    def test_fork_failure_is_an_io_error(self, tmp_path, monkeypatch):
        if not csvformat.helper_allowed(79):
            pytest.skip("this platform writes in one process")

        def fork():
            raise BlockingIOError(11, "no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        code, line = dacsim.cli.execute(load_scenario(SCENARIOS / "static.json"), tmp_path,
                                        quiet=True)
        assert code == dacsim.cli.EXIT_IO and "no process to spare" in line
        assert len(os.listdir("/proc/self/fd")) == fds  # the helper's file is closed

    def test_parent_failure_reaps_the_helper(self, tmp_path, monkeypatch):
        traj, curves = special_table(4 * csvformat.FORK_BLOCKS * (dacsim.engine.CSV_CELLS // 17))
        if not csvformat.helper_allowed(4 * csvformat.FORK_BLOCKS):
            pytest.skip("this platform writes in one process")
        parent, calls = os.getpid(), []
        format_g12 = csvformat.format_g12

        def failing(block):
            calls.append(os.getpid())
            if calls.count(parent) == 3:
                raise RuntimeError("a fault in the parent")
            return format_g12(block)

        monkeypatch.setattr(csvformat, "format_g12", failing)
        with pytest.raises(RuntimeError, match="in the parent"):
            write_trajectory_csv(tmp_path / "w.csv", traj, curves)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parent_failure_kills_the_helper(self, tmp_path, monkeypatch):
        # the helper stalls 20 s on its first block; the parent fails on its
        # own first block and ends the helper instead of waiting for it
        traj, curves = special_table(4 * csvformat.FORK_BLOCKS * (dacsim.engine.CSV_CELLS // 17))
        if not csvformat.helper_allowed(4 * csvformat.FORK_BLOCKS):
            pytest.skip("this platform writes in one process")
        parent, calls = os.getpid(), []
        format_g12 = csvformat.format_g12

        def failing(block):
            if os.getpid() == parent:
                raise RuntimeError("a fault in the parent")
            calls.append(1)
            if len(calls) == 1:
                time.sleep(20.0)
            return format_g12(block)

        monkeypatch.setattr(csvformat, "format_g12", failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="in the parent"):
            write_trajectory_csv(tmp_path / "w.csv", traj, curves)
        assert time.monotonic() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["w.csv"]  # the helper's file has no name left

    def test_fresh_process_writes_without_heap_churn(self, tmp_path):
        # A run is one fresh interpreter.  Where the writer's blocks leave
        # glibc's malloc trimming the heap between blocks, every block
        # faults its pages in again: ~400 minor faults a block against ~5.
        # Nothing but the writer frees a large chunk here, so only
        # format_g12's own work array can raise malloc's trim threshold.
        code = """if True:
            import json, resource, sys
            import numpy as np
            from dacsim.bounds import BoundCurve
            from dacsim.engine import CSV_CELLS, Trajectory, write_trajectory_csv
            rows = 150 * (CSV_CELLS // 17)  # 17 columns: 150 blocks
            rng = np.random.default_rng(3)
            special = np.array([-0.0, 1e-300, 1e300, np.inf, np.nan, -np.inf, 0.1, 123456789012.0])
            x = rng.normal(0.0, 1e3, (rows, 3))
            x[:special.size, 0] = special
            # arrays made in place: freeing a large temporary before the
            # write would raise malloc's trim threshold and hide the churn
            times = np.arange(rows, dtype=float)
            times *= 0.01
            bound = rng.normal(size=rows)
            np.abs(bound, out=bound)
            traj = Trajectory(times=times, x=x, v=rng.normal(size=(rows, 3)),
                              z=rng.normal(size=(rows, 3)), avg_u=rng.normal(size=rows),
                              protocol="dcdisc", k_index=np.arange(rows))
            curves = {"bound_ultimate": BoundCurve(values=np.full(rows, 1e-300)),
                      "bound_s": BoundCurve(values=bound)}
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            write_trajectory_csv(sys.argv[1], traj, curves)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(json.dumps({"blocks": -(-rows // (CSV_CELLS // 17)), "faults": after - before}))
        """
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(dacsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "w.csv")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["blocks"] >= 150
        assert result["faults"] <= 20 * result["blocks"], result

    @pytest.mark.parametrize("fname", ["static.json", "case1.json"])
    def test_fresh_run_writes_without_heap_churn(self, fname, tmp_path):
        # The same bound in a whole `dacsim run`: static.json (79 blocks)
        # and the switching case1.json (98 blocks), whose writer faults the
        # most of the bundled runs.  Whatever the run allocated before, the
        # first block's free of format_g12's 1 MB work array raises malloc's
        # trim threshold above a block's temporaries.
        code = """if True:
            import json, resource, sys
            from dacsim import cli, engine
            from dacsim.config import load_scenario
            result = {}

            def write(path, traj, curves):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                engine.write_trajectory_csv(path, traj, curves)
                result["faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                rows = engine.CSV_CELLS // (3 * traj.n + 2 + len(curves))  # a block's rows
                result["blocks"] = -(-traj.times.size // rows)

            cli.write_trajectory_csv = write
            cli.execute(load_scenario(sys.argv[1]), sys.argv[2], svg=True, quiet=True)
            print(json.dumps(result))
        """
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(dacsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(SCENARIOS / fname),
                               str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["blocks"] >= 70
        assert result["faults"] <= 20 * result["blocks"], result


# ---------------------------------------------------------------------------
# the %.12g block kernel vs Python's formatting
# ---------------------------------------------------------------------------

def percent_g12(block):
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in block.tolist()).encode()


def assert_kernel_exact(values):
    values = np.asarray(values, dtype=float)
    for cols in (1, 2, 7):
        block = np.resize(values, (-(-values.size // cols), cols))  # cycles to fill the block
        assert format_g12(block) == percent_g12(block), cols


G12_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-290, 1e300,
    1234567890125.0, 100000000000.5, 12345678901.25,  # exact ties at the 12th digit
    1e-5, 0.0001, 1e11, 1e12, 1e-4 - 1e-20, 1e15, 1e16, 1e21, 1e22, 1e23,
    99999999999.95, 9.999999999995e-5, 999999999999.5, 999999999999.4, 0.5, 0.1, 1 / 3,
    math.pi * 1e-7, math.e * 1e13, 123456789012.0, 1e-300, 1e-310,
]


NEAR_TIE_DELTAS = ("0", "1e-5", "-1e-5", "1e-4", "-1e-4", "2e-4", "-2e-4", "3e-4", "-3e-4",
                   "1e-3", "-1e-3")


def near_tie_values(m, e, negative):
    """m + 1/2 + delta at decade e, so that its 12-digit mantissa lies delta
    off a tie, for each of NEAR_TIE_DELTAS, with the nextafter neighbours
    of each: the cells at and around format_g12's near-tie margin."""
    sign = -1.0 if negative else 1.0
    ties = np.array([sign * float((m + Decimal("0.5") + Decimal(delta)).scaleb(e - 11))
                     for delta in NEAR_TIE_DELTAS])
    return np.concatenate((ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)))


def g12_template(text):
    """(sign, layout, last nonzero mantissa digit) of a %.12g text; the
    layout is the decade E of fixed notation, "e" or "0" (zero)."""
    body = text.lstrip("-")
    mantissa, e, _ = body.partition("e")
    significant = mantissa.replace(".", "").lstrip("0").rstrip("0")
    if body == "0":
        layout = "0"
    elif e:
        layout = "e"
    elif mantissa.startswith("0."):
        layout = -(len(mantissa[2:]) - len(mantissa[2:].lstrip("0")) + 1)
    else:
        layout = len(mantissa.partition(".")[0]) - 1
    return text.startswith("-"), layout, max(len(significant) - 1, 0)


class TestFormatG12:
    def test_edge_values(self):
        edges = np.array(G12_EDGES)
        with np.errstate(over="ignore"):
            near = np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)))
        assert_kernel_exact(np.concatenate((near, -near)))

    def test_integer_iteration_indices(self):
        k = np.concatenate((np.arange(2001), [40000, 10 ** 11 - 1, 10 ** 11, 10 ** 12 - 1,
                                              10 ** 12, 10 ** 12 + 1, 2 ** 53]))
        assert_kernel_exact(k)

    def test_decimal_grid_times(self):
        for h in (0.001, 0.002, 0.005, 0.182, 0.37):
            assert_kernel_exact(np.arange(5001) * h)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2047), st.integers(0, 2 ** 52 - 1)),
                    min_size=1, max_size=64))
    def test_raw_bit_patterns(self, fields):
        # sign, biased exponent and fraction of a float64: every exponent
        # including subnormals (0) and inf/nan (2047) is drawn alike
        bits = np.array([(sign << 63) | (exp << 52) | frac for sign, exp, frac in fields],
                        dtype=np.uint64)
        assert_kernel_exact(bits.view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-290, 299), st.booleans())
    def test_near_ties(self, m, e, negative):
        # uniform bit patterns almost never put frac(s) within the margin
        # of 0.5; these put it at, inside and outside the margin
        assert_kernel_exact(near_tie_values(m, e, negative))

    def test_near_tie_margin_is_needed(self, monkeypatch):
        # s lies up to 1.72e-4 from the exact product, so with a margin of
        # 1e-4 some of these cells round to the wrong side of their tie
        rng = np.random.default_rng(23)
        draws = zip(rng.integers(10 ** 11, 10 ** 12, 2000).tolist(),
                    rng.integers(-290, 300, 2000).tolist(), rng.integers(0, 2, 2000).tolist())
        block = np.array([near_tie_values(m, e, negative) for m, e, negative in draws])
        assert format_g12(block) == percent_g12(block)
        monkeypatch.setattr(csvformat, "_TIE_MARGIN", 1e-4)
        assert format_g12(block) != percent_g12(block)

    def test_decade_guess_brackets_every_binade(self):
        # E0 <= floor(log10 |x|) <= E0 + 1 at both ends of every normal
        # binade, the exact decade taken from the decimal expansion
        decade = csvformat._tables()[0] + csvformat._EXP_MIN
        for b in range(1, 2047):
            low = math.ldexp(1.0, b - 1023)
            high = math.nextafter(2 * low, 0.0) if b < 2046 else sys.float_info.max
            for v in (low, high):
                assert decade[b] <= Decimal(v).adjusted() <= decade[b] + 1, (b, v)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_decade_guessed_one_low(self, parity, monkeypatch):
        # the guess one decade low for every other binary exponent: each
        # value there has to move its decade up from the scaled mantissa.
        # A binade that holds a power of ten keeps its guess, since one
        # decade low there would leave its upper values two decades above
        # the guess, which one correction cannot reach.
        tables = list(csvformat._tables())
        decade = tables[0].copy()
        inside = np.flatnonzero(decade[:-1] == decade[1:])
        decade[inside[inside % 2 == parity]] -= 1
        tables[0] = decade
        monkeypatch.setattr(csvformat, "_tables", lambda: tables)
        rng = np.random.default_rng(7)
        values = np.concatenate((G12_EDGES, rng.normal(0.0, 1.0, 4000) * 10.0 ** rng.integers(-12, 14, 4000)))
        assert_kernel_exact(values)

    def test_every_layout_and_last_digit(self):
        # m 10^(E - 11) with the last nonzero digit of m at each position,
        # for each fixed-notation decade and some d.ddde+XX ones, both signs:
        # every reachable template, so each point slot and kept-digit count
        digits = "123456789123"
        decades = list(range(-4, 12)) + [-290, -100, -10, -5, 12, 13, 99, 100, 299]
        values = [float(f"{sign}{digits[:end + 1]}e{e - end}")
                  for sign in ("", "-") for e in decades for end in range(12)]
        values += [0.0, -0.0]
        texts = ["%.12g" % v for v in values]
        # 2 signs x (17 nonzero layouts x 12 last digits + zero): all of them
        assert len({g12_template(text) for text in texts}) == 2 * (17 * 12 + 1)
        assert_kernel_exact(values)

    def test_traced_peak_per_cell(self):
        rng = np.random.default_rng(5)
        block = rng.normal(0.0, 1.0, (409, 20)) * 10.0 ** rng.integers(-12, 14, (409, 20))
        format_g12(block)  # the tables are built on the first call
        tracemalloc.start()
        try:
            format_g12(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 260 * block.size

    def test_wide_random_blocks(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 1.0, 20000) * 10.0 ** rng.integers(-12, 14, 20000)
        assert_kernel_exact(values)

    @pytest.mark.parametrize("fname", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_bundled_scenarios_write_per_cell_csv(self, fname, tmp_path):
        raw = json.loads((SCENARIOS / fname).read_text())
        horizon = 20.0 if raw["protocol"] == "dcdisc" else 3.0  # past case1/case2's first switch
        raw.update(horizon=horizon, tail_start=0.75 * horizon)
        traj, _, curves = run_scenario(validate_scenario(raw, name=fname))
        path = tmp_path / "out.csv"
        write_trajectory_csv(path, traj, curves)
        assert_same_text(path.read_bytes(), per_cell_csv(traj, curves))


# ---------------------------------------------------------------------------
# one grid-alignment rule for config validation and the run
# ---------------------------------------------------------------------------

class TestGridAlignment:
    def scenario(self, boundary, waive):
        return {"name": "offgrid", "protocol": "dc1", "params": {"alpha": 1.0, "beta": 1.0},
                "schedule": {"graphs": [{"preset": "fig1b"}, {"preset": "fig1a"}],
                             "segments": [[0.0, 0], [boundary, 1]], "repeat": "none"},
                "inputs": {"preset": "case2"}, "horizon": 12.0, "step": 0.001,
                "tail_start": 11.0, "waive_graph_checks": waive}

    @pytest.mark.parametrize("boundary,aligned", [(10.000005, False), (10.0 + 1e-12, True)])
    @pytest.mark.parametrize("waive", [False, True])
    def test_validate_and_run_agree(self, boundary, aligned, waive, tmp_path, capsys):
        # 10.000005 is 5e-3 of a step off the grid: 5e-7 of its 1e4 steps
        from dacsim.cli import EXIT_CONFIG, main
        from dacsim.config import ConfigError
        path = tmp_path / "offgrid.json"
        path.write_text(json.dumps(self.scenario(boundary, waive)))
        if aligned:
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
            _grid(0.001, 12.0, [boundary])
            return
        with pytest.raises(ConfigError, match="switching boundary"):
            load_scenario(path)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "switching boundary" in capsys.readouterr().out
        with pytest.raises(ValueError, match="switching boundary"):
            _grid(0.001, 12.0, [boundary])


def loop_tables():
    """csvformat's lookup tables built one entry at a time from decimal
    and byte strings: the reference for the array construction.  The head
    and group codes of each template come from the %.12g text of a value
    with that template; only the d.ddde+XX decades have exponent text."""
    es = range(csvformat._EXP_MIN, 1 - csvformat._EXP_MIN)
    decade = np.array([(Decimal(2) ** (b - 1023)).adjusted() - csvformat._EXP_MIN
                       for b in range(2048)], dtype=np.intp)
    scale = np.array([float(Decimal(10) ** (11 - e)) for e in es])
    layouts = np.array([12 * (e + 4 if -4 <= e < 12 else 16) for e in es], dtype=np.intp)
    exps = np.frombuffer(b"".join((b"e%+03d" % e if e < -4 or e >= 12 else b"").ljust(8, b"\0")
                                  for e in es), dtype="<u8")
    ends = np.array([[3 * place + len((b"%03d" % g).rstrip(b"0")) - 1 if g else 0
                      for g in range(1000)] for place in range(4)], dtype=np.intp)

    def slot(point, kept, g):
        text = (b"%03d" % g)[:kept].ljust(3, b"\0")
        return text[:point] + b"." + text[point:] if point else text + b"\0"

    slots = np.frombuffer(b"".join(slot(*divmod(code, 4), g) for code in range(16) for g in range(1000)),
                          dtype="<u4")

    digits = "123456789123"
    heads, codes = [], [[], [], [], []]
    for sign in ("", "-"):
        for layout in range(18):
            for end in range(12):
                e = layout - 4 if layout < 16 else 20
                text = sign + "0" if layout == 17 else "%.12g" % float(f"{sign}{digits[:end + 1]}e{e - end}")
                mantissa = text.partition("e")[0]
                head = re.match(r"-?(0\.0*|0$)?", mantissa).group()
                groups = [b"", b"", b"", b""]
                count = 0
                for char in mantissa[len(head):].encode():
                    if char == ord("."):
                        groups[(count - 1) // 3] += b"."
                    else:
                        groups[count // 3] += bytes([char])
                        count += 1
                heads.append(head.encode().ljust(8, b"\0"))
                for place, group in enumerate(groups):
                    point = group.index(b".") if b"." in group else 0
                    codes[place].append(1000 * (4 * point + len(group.replace(b".", b""))))
    heads = np.frombuffer(b"".join(heads), dtype="<u8")
    return decade, scale, layouts, exps, ends, heads, np.array(codes, dtype=np.intp), slots


def test_tables_match_the_loop_construction():
    names = ("decade", "scale", "layouts", "exps", "ends", "heads", "codes", "slots")
    for name, got, want in zip(names, csvformat._tables(), loop_tables(), strict=True):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
