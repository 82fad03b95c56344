import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim.config import _build_theta
from dacsim.engine import integrate, simulate_protocol
from dacsim.graphs import build_digraph, laplacian, topology_preset
from dacsim.protocols import (
    AgentState,
    AlgorithmParams,
    ThetaGain,
    dc1_rhs,
    dc2_rhs,
    dc3_rhs,
)
from dacsim.signals import InputSet, make_signal, preset_scenario
from dacsim.switching import SwitchingSchedule
from conftest import random_balanced_strongly_connected, ring_run, two_node_pair
from oracles import sine_theta_schedule, stage1_commands


def constants(values):
    return InputSet(signals=tuple(make_signal("constant", value=v) for v in values))


def params(alpha=1.0, beta=1.0, **kw):
    return AlgorithmParams(alpha=alpha, beta=beta, **kw)


def rhs_at(factory, state, t, g, inputs, p, **kw):
    """The factory's flat right-hand side at (t, state), split into its x, v
    and z rows (z is empty for dc1)."""
    flat = factory(laplacian(g), p, **kw)(t, state.pack(), *inputs.eval_all(t))
    n = state.n
    return flat[:n], flat[n:2 * n], flat[2 * n:]


class TestDc1Derivative:
    def test_fixed_point(self):
        # x at the average and v = alpha (u - avg 1) is stationary
        state = AgentState(x=[2.0, 2.0], v=[-1.0, 1.0])
        dx, dv, _ = rhs_at(dc1_rhs, state, 0.0, two_node_pair(), constants([1.0, 3.0]), params())
        assert np.allclose(dx, 0.0, atol=1e-15)
        assert np.allclose(dv, 0.0, atol=1e-15)

    def test_direct_substitution(self):
        state = AgentState(x=[1.0, 3.0], v=[0.0, 0.0])
        dx, dv, _ = rhs_at(dc1_rhs, state, 0.0, two_node_pair(), constants([1.0, 3.0]), params())
        assert np.allclose(dx, [2.0, -2.0])
        assert np.allclose(dv, [-2.0, 2.0])

    def test_single_agent_low_pass(self):
        g = build_digraph(1, [])
        inputs = constants([5.0])
        state = AgentState(x=[1.0], v=[0.7])
        dx, dv, _ = rhs_at(dc1_rhs, state, 0.0, g, inputs, params(alpha=2.0))
        assert dx[0] == pytest.approx(0.0 - 2.0 * (1.0 - 5.0) - 0.7)
        assert dv[0] == 0.0


class TestDc2Derivative:
    def test_x_equals_z_gives_dx_equals_dz(self):
        theta = ThetaGain.constant([2.0, 3.0])
        state = AgentState(x=[0.4, -1.0], v=[0.1, -0.1], z=[0.4, -1.0])
        dx, _, dz = rhs_at(dc2_rhs, state, 0.0, two_node_pair(), constants([1.0, 3.0]),
                           params(theta=theta))
        assert np.allclose(dx, dz)

    def test_information_phase_reproduces_dc1(self):
        theta = ThetaGain.constant([1.0, 1.0])
        state2 = AgentState(x=[9.0, -9.0], v=[0.0, 0.0], z=[1.0, 3.0])
        _, dv2, dz2 = rhs_at(dc2_rhs, state2, 0.0, two_node_pair(), constants([1.0, 3.0]),
                             params(theta=theta))
        state1 = AgentState(x=[1.0, 3.0], v=[0.0, 0.0])
        dx1, dv1, _ = rhs_at(dc1_rhs, state1, 0.0, two_node_pair(), constants([1.0, 3.0]),
                             params())
        assert np.allclose(dz2, dx1)
        assert np.allclose(dv2, dv1)

    def test_equilibrium(self):
        u = np.array([1.0, 3.0])
        avg = u.mean()
        state = AgentState(x=[avg, avg], v=1.0 * (u - avg), z=[avg, avg])
        d = rhs_at(dc2_rhs, state, 0.0, two_node_pair(), constants(u),
                   params(theta=ThetaGain.constant([4.0, 0.5])))
        assert max(np.abs(part).max() for part in d) <= 1e-12

    def test_theta_bounds_enforced_lazily(self):
        # theta = base (1 + t): at t = 2 agent 0 reads 3.0, out of its
        # bounds, while agent 1 reads 1.5, inside them; one agent is enough
        theta = ThetaGain(base=[1.0, 0.5], shape=make_signal("linear", slope=1.0, intercept=1.0),
                          lower=[0.5, 0.25], upper=[1.5, 10.0])
        state = AgentState(x=[0.0, 0.0], v=[0.0, 0.0], z=[0.0, 0.0])
        rhs_at(dc2_rhs, state, 0.2, two_node_pair(), constants([1.0, 2.0]),
               params(theta=theta))
        with pytest.raises(ValueError, match="bounds"):
            rhs_at(dc2_rhs, state, 2.0, two_node_pair(), constants([1.0, 2.0]),
                   params(theta=theta))


class TestThetaSchedule:
    """The named sine schedule, built by the config from the signal kinds
    and evaluated by ThetaGain on an array of times in one call, is bit for
    bit the literal schedule (``oracles.sine_theta_schedule``): on drawn
    times, and on a block's half-step grid, where a run reads it.  Both
    sides take numpy's sine of the same times, so the check pins the
    schedule's operation order and does not depend on numpy's sine
    matching libm's to the last bit."""

    @staticmethod
    def schedule(bases, amp, freq):
        spec = {"name": "sine", "base": bases, "amplitude": amp, "frequency": freq}
        return _build_theta(spec, len(bases))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=7),
           st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 50.0),
           st.lists(st.floats(0.0, 1e4), max_size=16), st.floats(1e-4, 0.1),
           st.integers(0, 10 ** 6), st.integers(1, 64))
    def test_matches_the_literal_schedule(self, bases, amp, freq, times, h, k0, steps):
        theta, base = self.schedule(bases, amp, freq), np.array(bases)
        # the stage times of steps k0..k0 + steps - 1, as a run forms them
        grid = np.repeat(np.arange(k0, k0 + steps + 1) * h, 2)[:-1]
        grid[1::2] += 0.5 * h
        for t in (np.array(times), grid):
            assert np.array_equal(theta.values(t), sine_theta_schedule(base, amp, freq, t))
        for s in times:
            assert np.array_equal(theta.at(s), sine_theta_schedule(base, amp, freq, [s])[0])

    def test_a_reordered_form_differs(self):
        # base + base amp sin(freq t) is the same schedule in exact
        # arithmetic but rounds otherwise, so bit equality tells the forms apart
        rng = np.random.default_rng(11)
        bases, t = rng.uniform(0.01, 10.0, 6), rng.uniform(0.0, 100.0, 200)
        theta = self.schedule(bases.tolist(), 0.5, 1.7)
        literal = sine_theta_schedule(bases, 0.5, 1.7, t)
        reordered = bases + bases * (0.5 * np.sin(1.7 * t))[:, None]
        assert np.array_equal(theta.values(t), literal)
        assert not np.array_equal(theta.values(t), reordered)


class TestDc3Derivative:
    def setup_method(self):
        self.g = two_node_pair()
        self.inputs = constants([1.0, 3.0])
        self.state = AgentState(x=[0.5, 0.2], v=[0.3, -0.3], z=[1.2, 0.8])
        self.theta = ThetaGain.constant([1.0, 2.0])

    def payloads(self, p):
        """The transmitted values of a short dc3 run from self.state."""
        traj = simulate_protocol("dc3", self.g, self.inputs, p, self.state, h=0.01, T=0.1)
        return traj, traj.messages_sample

    def test_zero_mask_matches_dc2_and_raw_payload(self):
        p = params(theta=self.theta, psi=lambda t: 0.0)
        d3 = rhs_at(dc3_rhs, self.state, 0.0, self.g, self.inputs, p)
        d2 = rhs_at(dc2_rhs, self.state, 0.0, self.g, self.inputs, params(theta=self.theta))
        for a, b in zip(d3, d2):
            assert np.allclose(a, b, atol=0)
        traj, sent = self.payloads(p)
        assert sent[0].tolist() == [1.2, 0.8]
        assert sent.shape == (traj.times.size, 2)  # one payload per agent, in agent order
        assert np.array_equal(sent, traj.z)

    def test_payload_is_state_plus_mask(self):
        p = params(theta=self.theta, psi=lambda t: 0.3)
        traj, sent = self.payloads(p)
        assert sent[0, 0] == pytest.approx(1.5)
        assert np.array_equal(sent, traj.z + 0.3)

    def test_constant_mask_leaves_derivative_unchanged(self):
        p = params(theta=self.theta, psi=lambda t: 42.0)
        d3 = rhs_at(dc3_rhs, self.state, 0.0, self.g, self.inputs, p)
        d2 = rhs_at(dc2_rhs, self.state, 0.0, self.g, self.inputs, params(theta=self.theta))
        for a, b in zip(d3, d2):
            assert np.allclose(a, b, atol=1e-12)


class TestSaturation:
    def test_nonpositive_limit(self):
        with pytest.raises(ValueError):
            params(sat_limits=0.0)

    def test_commands_clamped_exactly_along_trajectory(self):
        g = topology_preset("fig1a")
        inputs = preset_scenario("saturation")
        limits = np.full(6, 15.0)
        p = AlgorithmParams(alpha=10.0, beta=15.0, sat_limits=limits)
        state0 = AgentState(x=inputs.values(0.0), v=np.zeros(6))
        traj = simulate_protocol("dc1_sat", g, inputs, p, state0, h=1e-3, T=2.0)
        commands = stage1_commands(dc1_rhs(laplacian(g), p, saturate=True), traj, inputs)
        assert np.max(np.abs(commands)) <= 15.0


def initial_run(n, init, alpha=1.0, protocol="dc1"):
    """A one-step run from a config's "init" policies: the trajectory, whose
    first row is the initial state, and the run's predicted offset."""
    params = {"alpha": alpha, "beta": 1.0}
    if protocol == "dc2":
        params["theta"] = 1.0
    traj, _, _ = ring_run(n, params, init, protocol=protocol)
    return traj, traj.meta["offset_prediction"]


class TestInitState:
    def test_zero_v_policy(self):
        traj, offset = initial_run(3, {"x0": [1.0, 2.0, 3.0]}, alpha=2.0)
        assert np.all(traj.v[0] == 0.0)
        assert offset == 0.0
        assert traj.z is None

    def test_explicit_offset(self):
        _, offset = initial_run(2, {"v0": [1.0, 1.0]}, alpha=1.0)
        assert offset == pytest.approx(-1.0)

    def test_explicit_balanced_v0(self):
        _, offset = initial_run(2, {"v0": [2.0, -2.0]}, alpha=3.0)
        assert offset == 0.0

    def test_with_z_copies_x(self):
        traj, _ = initial_run(2, {"x0": [1.0, 2.0]}, protocol="dc2")
        assert np.array_equal(traj.z[0], traj.x[0])

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            initial_run(2, {"x0": "random"})


class TestTrajectoryProperties:
    def test_integral_state_conserved_for_all_protocols(self):
        rng = np.random.default_rng(12)
        inputs = preset_scenario("case2")
        theta = ThetaGain.constant(np.full(6, 1.5))
        for g in (topology_preset("fig1a"), random_balanced_strongly_connected(rng, 6)):
            x0 = rng.uniform(-2, 2, 6)
            v0 = rng.uniform(-2, 2, 6)
            for protocol in ("dc1", "dc2", "dc3"):
                p = AlgorithmParams(alpha=1.0, beta=1.0, theta=theta,
                                    psi=np.sin if protocol == "dc3" else None)
                has_z = protocol != "dc1"
                st = AgentState(x=x0, v=v0, z=x0.copy() if has_z else None)
                traj = simulate_protocol(protocol, g, inputs, p, st, h=1e-3, T=8.0)
                drift = np.abs(traj.v.sum(axis=1) - v0.sum()).max()
                assert drift <= 1e-8, (protocol, drift)

    def test_mask_invariance_along_trajectories(self):
        g = topology_preset("fig1a")
        inputs = preset_scenario("case2")
        theta = ThetaGain.constant(np.full(6, 1.0))
        x0 = inputs.values(0.0)
        st = AgentState(x=x0, v=np.zeros(6), z=x0.copy())
        base = simulate_protocol("dc2", g, inputs, AlgorithmParams(1.0, 1.0, theta=theta),
                                 st, h=1e-3, T=6.0)
        for psi in (lambda t: 0.0, np.sin, lambda t: 10.0 + 5.0 * t):
            p = AlgorithmParams(1.0, 1.0, theta=theta, psi=psi)
            traj = simulate_protocol("dc3", g, inputs, p, st, h=1e-3, T=6.0)
            for a, b in ((traj.x, base.x), (traj.v, base.v), (traj.z, base.z)):
                assert np.abs(a - b).max() <= 1e-9

    def test_static_fixed_point_is_stationary(self):
        u = np.array([3.0, 4.0, 5.0, 4.0, -1.5, 1.0])
        inputs = constants(u)
        g = topology_preset("fig1a")
        avg = u.mean()
        alpha = 1.7
        x = np.full(6, avg)
        v = alpha * (u - avg)
        theta = ThetaGain.constant(np.full(6, 2.2))
        dx, dv, _ = rhs_at(dc1_rhs, AgentState(x=x, v=v), 0.0, g, inputs,
                           params(alpha=alpha, beta=0.9))
        assert max(np.abs(dx).max(), np.abs(dv).max()) <= 1e-12
        st = AgentState(x=x, v=v, z=x.copy())
        d2 = rhs_at(dc2_rhs, st, 0.0, g, inputs, params(alpha=alpha, beta=0.9, theta=theta))
        assert max(np.abs(part).max() for part in d2) <= 1e-12
        d3 = rhs_at(dc3_rhs, st, 0.0, g, inputs,
                    params(alpha=alpha, beta=0.9, theta=theta, psi=math.cos))
        assert max(np.abs(part).max() for part in d3) <= 1e-12


class TestInputPrivacy:
    """dc1 "preserves the privacy of the local input of each agent" (Kia,
    Cortes & Martinez, arXiv:1401.6463): runs whose inputs differ can send
    the same x.  Shift agent i's input by a + b e^{-alpha t} and its v(0)
    by alpha a: du_i + alpha u_i gains -alpha b e^{-alpha t} + alpha a +
    alpha b e^{-alpha t} = alpha a, which the shifted v_i cancels, and
    dv = alpha beta L x never reads u.  So x is unchanged while avg(u)
    moves by (a + b e^{-alpha t}) / n.  dc2 runs the same core on z, which
    is what it sends, so the same shift leaves z unchanged."""

    @staticmethod
    def runs(seed, agent, a, b, rate, switching, protocol="dc1"):
        """The unshifted and the shifted run of ``protocol`` on a drawn
        balanced, strongly connected digraph (or schedule of three), the
        shift's exponential decaying at ``rate`` times alpha, and alpha.
        dc2 also draws a constant theta and z(0)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        i = agent % n
        if switching:
            topology = SwitchingSchedule(
                graphs=tuple(random_balanced_strongly_connected(rng, n) for _ in range(3)),
                period=1.5, segments=((0.0, 0), (0.5, 1), (1.0, 2)))
        else:
            topology = random_balanced_strongly_connected(rng, n)
        alpha, beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        terms = [[make_signal("sine", amplitude=float(rng.uniform(0.1, 3.0)),
                              frequency=float(rng.uniform(0.1, 2.0))),
                  make_signal("constant", value=float(rng.uniform(-2.0, 2.0)))] for _ in range(n)]
        x0, v0 = rng.uniform(-3.0, 3.0, (2, n))
        p, z0 = params(alpha, beta), None
        if protocol == "dc2":
            p = params(alpha, beta, theta=ThetaGain.constant(rng.uniform(0.5, 3.0, n)))
            z0 = rng.uniform(-3.0, 3.0, n)
        shifted_terms = list(terms)
        shifted_terms[i] = terms[i] + [
            make_signal("constant", value=a),
            make_signal("exponential-decay", coefficient=b, rate=rate * p.alpha)]
        shifted_v0 = v0.copy()
        shifted_v0[i] += p.alpha * a

        def run(inputs, v_start):
            signals = tuple(make_signal("sum-of-terms", terms=t) for t in inputs)
            return simulate_protocol(protocol, topology, InputSet(signals=signals), p,
                                     AgentState(x=x0, v=v_start, z=z0), h=0.01, T=4.0)

        return run(terms, v0), run(shifted_terms, shifted_v0), p.alpha

    def check(self, protocol, sent, seed, agent, a, b, switching):
        """The shifted run's transmissions ``sent`` ("x" or "z") equal the
        unshifted run's while avg(u) moves, and a b e^{-2 alpha t} shift,
        which v does not cancel, moves them by over 1e-3 |b|."""
        base, shifted, alpha = self.runs(seed, agent, a, b, 1.0, switching, protocol)
        assert np.abs(getattr(shifted, sent) - getattr(base, sent)).max() <= 1e-13
        moved = (a + b * np.exp(-alpha * base.times)) / base.n
        assert np.abs(shifted.avg_u - base.avg_u - moved).max() <= 1e-13
        base, shifted, _ = self.runs(seed, agent, a, b, 2.0, switching, protocol)
        assert np.abs(getattr(shifted, sent) - getattr(base, sent)).max() >= 1e-3 * abs(b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.floats(-10.0, 10.0),
           st.floats(0.5, 10.0), st.booleans(), st.booleans())
    def test_shifted_input_sends_the_same_x(self, seed, agent, a, b, negative, switching):
        # over 200 draws: x up to 5.1e-15 apart; the control moved x by at
        # least 0.052 |b|
        self.check("dc1", "x", seed, agent, a, -b if negative else b, switching)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.floats(-10.0, 10.0),
           st.floats(0.5, 10.0), st.booleans(), st.booleans())
    def test_dc2_shifted_input_sends_the_same_z(self, seed, agent, a, b, negative, switching):
        # over 200 draws: z up to 6.0e-15 apart; the control moved z by at
        # least 0.068 |b|
        self.check("dc2", "z", seed, agent, a, -b if negative else b, switching)


class TestZeroSumPrivacy:
    """dc1 keeps each agent's input private even from an adversary who
    hears every transmitted x_k(t), knows the protocol, the digraph and the
    gains, knows sum(v(0)) (0 at the start that dc1's tracking needs) and
    even the true average avg(u)(t) at every t.  Shift agent i's input by
    +a and agent j's by -a, and v_i(0) by +alpha a and v_j(0) by -alpha a:
    du + alpha u gains +-alpha a, which the shifted v cancels, dv = alpha
    beta L x never reads u, and neither sum(v(0)) nor avg(u) moves.  So
    every x_k(t) is unchanged while u_i and u_j differ by a."""

    @staticmethod
    def run(i, j, a, v_shift):
        """dc1 on fig1a with case2's inputs over 10 s, agent i's input
        moved by a and agent j's by -a; with v_shift, v_i(0) and v_j(0)
        moved by +-alpha a."""
        p = params(1.0, 1.0)
        signals = list(preset_scenario("case2").signals)
        for k, shift in ((i, a), (j, -a)):
            signals[k] = make_signal("sum-of-terms", terms=[signals[k],
                                                            make_signal("constant", value=shift)])
        v0 = np.zeros(6)
        if v_shift:
            v0[i], v0[j] = p.alpha * a, -p.alpha * a
        return simulate_protocol("dc1", topology_preset("fig1a"), InputSet(signals=tuple(signals)),
                                 p, AgentState(x=np.zeros(6), v=v0), h=0.01, T=10.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 5), st.floats(0.1, 10.0), st.booleans())
    def test_zero_sum_shift_sends_the_same_x(self, i, offset, a, negative):
        j, a = (i + offset) % 6, -a if negative else a
        base, shifted = self.run(i, j, 0.0, False), self.run(i, j, a, True)
        # over the 30 ordered pairs at |a| from 0.1 to 10: x up to 2.9e-15
        # apart and avg(u) up to 6.1e-16
        assert np.abs(shifted.x - base.x).max() <= 1e-13
        assert np.abs(shifted.avg_u - base.avg_u).max() <= 1e-13
        # negative control: without the v shift, x moves (measured at least 0.35 |a|)
        assert np.abs(self.run(i, j, a, False).x - base.x).max() >= 0.1 * abs(a)


class TestExternalPrivacy:
    """dc3 keeps "the final agreement value" private "from ... external
    adversaries" (arXiv:1401.6463): an eavesdropper who hears every message
    z + psi(t), and knows the protocol, the digraph and the gains but not
    the common mask psi, cannot tell runs apart whose agreement values
    differ.  Shift every input, x(0) and z(0) by c and psi by -c: L has zero
    row sums, so L (z + psi) and z - u are unchanged, z and x move by c at
    every t, and the messages z + psi stay the same."""

    @staticmethod
    def run(seed, c, mask_shift):
        """A dc3 run on a drawn balanced, strongly connected digraph with
        drawn constant theta, sine-plus-constant inputs and the mask
        psi(t) = m0 + m1 sin(w t); with c != 0, every input, x(0) and z(0)
        moved by c and psi by mask_shift."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        topology = random_balanced_strongly_connected(rng, n)
        alpha, beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        m0, m1, w = (float(v) for v in rng.uniform(0.5, 5.0, 3))
        p = params(alpha, beta, theta=ThetaGain.constant(rng.uniform(0.5, 3.0, n)),
                   psi=lambda t: m0 + m1 * np.sin(w * np.asarray(t)) + mask_shift)
        signals = tuple(make_signal("sum-of-terms", terms=[
            make_signal("sine", amplitude=float(rng.uniform(0.1, 3.0)),
                        frequency=float(rng.uniform(0.1, 2.0))),
            make_signal("constant", value=float(rng.uniform(-2.0, 2.0)) + c)]) for _ in range(n))
        x0, v0, z0 = rng.uniform(-3.0, 3.0, (3, n))
        return simulate_protocol("dc3", topology, InputSet(signals=signals), p,
                                 AgentState(x=x0 + c, v=v0, z=z0 + c), h=0.01, T=4.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 10.0), st.booleans())
    def test_shifted_run_sends_the_same_messages(self, seed, c, negative):
        c = -c if negative else c
        base, shifted = self.run(seed, 0.0, 0.0), self.run(seed, c, -c)
        # over 200 draws, |c| <= 10: messages up to 1.2e-14 apart, x - c
        # up to 2.0e-14 and the final mean of z up to 5.3e-15 off
        assert np.abs(shifted.messages_sample - base.messages_sample).max() <= 1e-13
        assert np.abs(shifted.x - base.x - c).max() <= 1e-13
        assert abs(shifted.z[-1].mean() - base.z[-1].mean() - c) <= 1e-13
        # negative control: a mask moved by -c/2 leaves the messages c/2 off
        sent = self.run(seed, c, -c / 2.0).messages_sample - base.messages_sample
        assert np.abs(sent - c / 2.0).max() <= 1e-13


class TestScalarSaturatedTracking:
    def test_bounded_command_still_tracks(self):
        # scalar single-integrator chasing u = sin t through a clamped command
        # dx = -sat(3, beta (x - u) - du); command bound exceeds sup|du| = 1
        beta, cbar = 2.0, 3.0

        def rhs(t, y, ts):
            err = beta * (y[0] - math.sin(t)) - math.cos(t)
            return np.array([-np.clip(err, -cbar, cbar)])

        for x0 in (-10.0, 0.0, 10.0):
            times, ys, _ = integrate(rhs, np.array([x0]), h=1e-3, T=40.0)
            tail = times >= 30.0
            gap = np.abs(ys[tail, 0] - np.sin(times[tail]))
            assert gap.max() <= 1e-3, x0
