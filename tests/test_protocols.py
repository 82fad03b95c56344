import math

import numpy as np
import pytest

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
from conftest import random_balanced_strongly_connected, ring_run, two_node_pair


def constants(values):
    return InputSet(signals=tuple(make_signal("constant", value=v) for v in values))


def params(alpha=1.0, beta=1.0, **kw):
    return AlgorithmParams(alpha=alpha, beta=beta, **kw)


def rhs_at(factory, state, t, g, inputs, p, **kw):
    """The factory's flat right-hand side at (t, state), split into its x, v
    and z rows (z is empty for dc1)."""
    flat = factory(laplacian(g), inputs, p, **kw)(t, state.pack())
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
        theta = ThetaGain(fn=lambda t: np.array([1.0 + t, 1.0]),
                          lower=[0.5, 0.5], upper=[1.5, 1.5])
        state = AgentState(x=[0.0, 0.0], v=[0.0, 0.0], z=[0.0, 0.0])
        rhs_at(dc2_rhs, state, 0.2, two_node_pair(), constants([1.0, 2.0]),
               params(theta=theta))
        with pytest.raises(ValueError, match="bounds"):
            rhs_at(dc2_rhs, state, 2.0, two_node_pair(), constants([1.0, 2.0]),
                   params(theta=theta))


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
        assert np.max(np.abs(traj.commands)) <= 15.0


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
