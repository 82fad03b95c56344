import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim.discrete import (
    DiscreteState,
    StepSize,
    dcdisc_step,
    make_stepsize,
    max_stepsize,
    pdelta_spectrum_check,
)
from dacsim.engine import DivergenceError, integrate, simulate_discrete
from dacsim.graphs import build_digraph, laplacian, topology_preset
from dacsim.protocols import AlgorithmParams
from dacsim.signals import InputSet, make_signal, preset_scenario
from conftest import random_balanced_strongly_connected, two_node_pair


def constants(values):
    return InputSet(signals=tuple(make_signal("constant", value=v) for v in values))


def hand_iteration(lap, z, v, u, alpha, beta, delta):
    """Literal transcription of the update, the oracle for dcdisc_step."""
    lzu = lap @ (z + u)
    z_next = z - delta * alpha * z - delta * beta * lzu - delta * v
    v_next = v + delta * alpha * beta * lzu
    return z_next, v_next


class TestStep:
    def test_fixed_point_two_agents(self):
        g = two_node_pair()
        inputs = constants([1.0, 3.0])
        p = AlgorithmParams(alpha=1.0, beta=1.0)
        s = DiscreteState.initial([1.0, -1.0], [-1.0, 1.0], inputs)
        nxt = dcdisc_step(s, g, inputs, p, 0.5)
        oracle = hand_iteration(laplacian(g), s.z, s.v, inputs.values(0.0), 1.0, 1.0, 0.5)
        assert np.allclose(nxt.z, oracle[0], atol=0)
        assert np.allclose(nxt.v, oracle[1], atol=0)
        assert np.allclose(nxt.z, [1.0, -1.0])
        assert np.allclose(nxt.v, [-1.0, 1.0])
        assert np.allclose(nxt.x_out, [2.0, 2.0])  # both publish the average

    def test_zero_stepsize_is_identity(self):
        g = two_node_pair()
        inputs = constants([1.0, 3.0])
        s = DiscreteState.initial([0.3, 0.7], [0.1, -0.1], inputs)
        nxt = dcdisc_step(s, g, inputs, AlgorithmParams(1.0, 1.0), 0.0)
        assert np.array_equal(nxt.z, s.z) and np.array_equal(nxt.v, s.v)

    def test_single_agent_reduction(self):
        g = build_digraph(1, [])
        inputs = constants([4.0])
        s = DiscreteState.initial([2.0], [0.5], inputs)
        nxt = dcdisc_step(s, g, inputs, AlgorithmParams(alpha=2.0, beta=7.0), 0.25)
        assert nxt.z[0] == pytest.approx((1 - 0.25 * 2.0) * 2.0 - 0.25 * 0.5)
        assert nxt.v[0] == 0.5

    def test_random_steps_match_hand_iteration(self):
        rng = np.random.default_rng(8)
        g = random_balanced_strongly_connected(rng, 5)
        inputs = preset_scenario("case2").signals[:5]
        inputs = InputSet(signals=inputs)
        p = AlgorithmParams(alpha=1.3, beta=0.7)
        s = DiscreteState.initial(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5), inputs)
        delta = 0.2
        for _ in range(10):
            zo, vo = hand_iteration(laplacian(g), s.z, s.v, inputs.values(s.k * delta),
                                    1.3, 0.7, delta)
            s2 = dcdisc_step(s, g, inputs, p, delta)
            assert np.allclose(s2.z, zo, atol=0) and np.allclose(s2.v, vo, atol=0)
            s = s2


class TestStepsize:
    @pytest.mark.parametrize("args,expected", [
        ((1.0, 1.0, 1.0), 1.0),
        ((3.0, 10.0, 1.0), 0.1),
        ((2.0, 4.0, 1.0), 0.25),
    ])
    def test_bound_values(self, args, expected):
        assert max_stepsize(*args) == pytest.approx(expected)

    def test_nonpositive_arguments(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                max_stepsize(*bad)

    def test_paper_operating_point_admissible(self):
        # alpha = beta = 1 on the unit ring gives bound 1; delta = 0.5 is fine
        ss = make_stepsize(0.5, 1.0, 1.0, 1.0)
        assert ss.admissible and ss.bound == 1.0

    def test_inadmissible_warns_not_raises(self):
        with pytest.warns(UserWarning, match="not below"):
            ss = make_stepsize(1.5, 1.0, 1.0, 1.0)
        assert not ss.admissible

    def test_stepsize_type_invariant(self):
        assert StepSize(delta=0.3, bound=1.0).admissible
        assert not StepSize(delta=1.0, bound=1.0).admissible
        with pytest.raises(ValueError):
            StepSize(delta=-0.1, bound=1.0)


class TestPdeltaSpectrum:
    def test_ring_half_step_semi_convergent(self):
        rep = pdelta_spectrum_check(topology_preset("fig1a"), 1.0, 1.0, 0.5)
        assert rep.semi_convergent
        assert rep.unit_eigenvalue_count == 1
        assert rep.max_other_modulus < 1.0 - 1e-9
        assert rep.hypothesis_violation is None

    def test_ring_unit_step_not_semi_convergent(self):
        # 1 - (1 - e^{i theta}) lands on the unit circle for every ring mode
        rep = pdelta_spectrum_check(topology_preset("fig1a"), 1.0, 1.0, 1.0)
        assert not rep.semi_convergent
        assert rep.unit_eigenvalue_count > 1

    def test_alpha_boundary_not_semi_convergent(self):
        # delta = 2 with alpha = 1 puts 1 - delta*alpha = -1 on the circle
        rep = pdelta_spectrum_check(two_node_pair(), 1.0, 0.1, 2.0)
        assert not rep.semi_convergent

    def test_hypothesis_violation_flagged(self):
        unbalanced = build_digraph(2, [(1, 2, 1.0)])
        rep = pdelta_spectrum_check(unbalanced, 1.0, 1.0, 0.1)
        assert rep.hypothesis_violation is not None

    def test_random_admissible_always_semi_convergent(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            g = random_balanced_strongly_connected(rng, int(rng.integers(2, 9)))
            alpha, beta = rng.uniform(0.3, 3.0, 2)
            bound = max_stepsize(alpha, beta, float(g.out_degrees.max()))
            assert pdelta_spectrum_check(g, alpha, beta,
                                         rng.uniform(0.05, 0.9) * bound).semi_convergent
            for factor in (2.0, 3.5):   # anywhere at or past twice the bound
                assert not pdelta_spectrum_check(g, alpha, beta, factor * bound).semi_convergent


class TestTrajectories:
    def test_conservation_exact(self):
        inputs = preset_scenario("sampled_bias", seed=3)
        traj = simulate_discrete(topology_preset("fig1a"), inputs,
                                 AlgorithmParams(1.0, 1.0), np.zeros(6),
                                 np.array([0.4, -0.1, -0.3, 0.2, 0.1, -0.3]),
                                 delta=0.5, num_steps=120)
        sums = traj.v.sum(axis=1)
        assert np.abs(sums - sums[0]).max() <= 1e-12

    def test_static_inputs_converge_to_average(self):
        u = np.array([3.0, 4.0, 5.0, 4.0, -1.5, 1.0])
        traj = simulate_discrete(topology_preset("fig1a"), constants(u),
                                 AlgorithmParams(1.0, 1.0), np.zeros(6), np.zeros(6),
                                 delta=0.5, num_steps=300)
        assert np.abs(traj.x[-1] - u.mean()).max() <= 1e-8

    def test_euler_defect_second_order(self):
        # one iteration against the exact flow of the matching ODE shrinks
        # like delta^2: halving delta cuts the defect by about four
        g = topology_preset("fig1a")
        inputs = preset_scenario("case2")
        p = AlgorithmParams(alpha=1.0, beta=1.0)
        lap = laplacian(g)
        rng = np.random.default_rng(2)
        z0, v0 = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)

        def ode(t, y, ts):
            z, v = y[:6], y[6:]
            lzu = lap @ (z + inputs.values(t))
            return np.concatenate((-z - lzu - v, lzu))

        defects = []
        for delta in (0.2, 0.1):
            s = DiscreteState.initial(z0, v0, inputs)
            s1 = dcdisc_step(s, g, inputs, p, delta)
            _, flow, _ = integrate(ode, np.concatenate((z0, v0)), h=delta / 64, T=delta)
            defects.append(np.linalg.norm(np.concatenate((s1.z, s1.v)) - flow[-1]))
        assert defects[0] / defects[1] >= 3.3

    def test_discrete_step_is_euler_of_shifted_ode(self):
        # identical by construction: the iteration *is* the Euler update of
        # the (z, v) = (x - u, v) dynamics evaluated at the sample time
        g = topology_preset("fig1a")
        inputs = preset_scenario("case2")
        lap = laplacian(g)
        rng = np.random.default_rng(4)
        z, v = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
        delta = 0.3
        s = DiscreteState(z=z, v=v, k=2, x_out=z + inputs.values(0.6))
        s1 = dcdisc_step(s, g, inputs, AlgorithmParams(1.0, 1.0), delta)
        u = inputs.values(0.6)
        lzu = lap @ (z + u)
        euler = np.concatenate((z + delta * (-z - lzu - v), v + delta * lzu))
        assert np.abs(np.concatenate((s1.z, s1.v)) - euler).max() <= 1e-14


def test_run_loop_matches_repeated_steps():
    # simulate_discrete samples the inputs once and builds L once; its
    # iterates must equal dcdisc_step applied k times
    rng = np.random.default_rng(21)
    g = random_balanced_strongly_connected(rng, 5)
    inputs = InputSet(signals=preset_scenario("sampled_bias", seed=3).signals[:5])
    p = AlgorithmParams(alpha=0.8, beta=0.6)
    z0, v0 = rng.uniform(-1, 1, (2, 5))
    traj = simulate_discrete(g, inputs, p, z0, v0, delta=0.3, num_steps=40)
    s = DiscreteState.initial(z0, v0, inputs)
    for k in range(41):
        assert np.array_equal(traj.z[k], s.z) and np.array_equal(traj.v[k], s.v)
        assert np.array_equal(traj.x[k], s.x_out)
        s = dcdisc_step(s, g, inputs, p, 0.3)
    np.testing.assert_array_equal(traj.avg_u, inputs.values(traj.times).mean(axis=1))


def test_divergence_reports_first_bad_iterate():
    # delta just past the bound: |eig P| = 1.02, so the state first passes
    # 1e12 well inside the run's second block of iterations
    g, inputs, p = topology_preset("fig1a"), preset_scenario("case2"), AlgorithmParams(1.0, 1.0)
    delta = 1.01
    with pytest.warns(UserWarning, match="not below the admissibility bound"):
        with pytest.raises(DivergenceError) as err:
            simulate_discrete(g, inputs, p, np.zeros(6), np.zeros(6), delta, num_steps=4000)
    s = DiscreteState.initial(np.zeros(6), np.zeros(6), inputs)
    while True:
        s = dcdisc_step(s, g, inputs, p, delta)
        peak = max(np.abs(s.z).max(), np.abs(s.v).max())
        if peak > 1e12:
            break
    assert 1024 < s.k < 2048
    assert err.value.t == s.k * delta
    assert str(err.value) == (f"discrete state magnitude {peak:.3g} at k={s.k}; stepsize "
                              f"{delta} (bound 1) is too aggressive")


class TestFusedStep:
    """simulate_discrete steps (z, v) by one matrix-vector increment per
    iteration; the literal update is its oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
           alpha=st.floats(0.1, 5.0), beta=st.floats(0.1, 5.0),
           fraction=st.floats(0.01, 0.99))
    def test_run_matches_hand_iteration(self, seed, n, alpha, beta, fraction):
        rng = np.random.default_rng(seed)
        g = random_balanced_strongly_connected(rng, n)
        delta = fraction * max_stepsize(alpha, beta, float(g.out_degrees.max()))
        inputs = InputSet(signals=tuple(
            make_signal("sampled-piecewise-constant", values=list(rng.normal(size=8)),
                        hold=float(rng.uniform(0.5, 2.0)))
            for _ in range(n)))
        z0, v0 = rng.uniform(-1, 1, (2, n))
        traj = simulate_discrete(g, inputs, AlgorithmParams(alpha, beta), z0, v0,
                                 delta=delta, num_steps=200)
        lap = laplacian(g)
        z, v = z0, v0
        for k in range(201):
            u = inputs.values(k * delta)
            scale = max(1.0, np.abs(z).max(), np.abs(v).max())
            assert np.abs(traj.z[k] - z).max() <= 1e-12 * scale
            assert np.abs(traj.v[k] - v).max() <= 1e-12 * scale
            assert np.abs(traj.x[k] - (z + u)).max() <= 1e-12 * max(scale, np.abs(u).max())
            z, v = hand_iteration(lap, z, v, u, alpha, beta, delta)
        sums = traj.v.sum(axis=1)
        assert np.abs(sums - sums[0]).max() <= 1e-12 * max(1.0, np.abs(traj.v).max())
        # simulate_discrete rejects delta = 0; dcdisc_step runs the same kernel
        s = DiscreteState(z=traj.z[7], v=traj.v[7], k=7, x_out=traj.x[7])
        nxt = dcdisc_step(s, g, inputs, AlgorithmParams(alpha, beta), 0.0)
        assert np.array_equal(nxt.z, s.z) and np.array_equal(nxt.v, s.v)

    def test_partial_trajectory_is_cut_after_the_bad_row(self):
        g, inputs, p = topology_preset("fig1a"), preset_scenario("case2"), AlgorithmParams(1.0, 1.0)
        with pytest.warns(UserWarning, match="not below the admissibility bound"):
            with pytest.raises(DivergenceError) as err:
                simulate_discrete(g, inputs, p, np.zeros(6), np.zeros(6), 1.01, num_steps=4000)
        partial = err.value.partial
        k = int(round(err.value.t / 1.01))
        assert np.array_equal(partial.k_index, np.arange(k + 1))
        assert partial.times[-1] == err.value.t
        u = inputs.values(partial.times)
        np.testing.assert_array_equal(partial.avg_u, u.mean(axis=1))
        np.testing.assert_array_equal(partial.x, partial.z + u)
        assert max(np.abs(partial.z[-1]).max(), np.abs(partial.v[-1]).max()) > 1e12
        assert np.abs(np.hstack((partial.z, partial.v))[:-1]).max() <= 1e12
