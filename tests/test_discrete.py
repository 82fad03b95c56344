import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dacsim.cli import main
from dacsim.discrete import (
    DiscreteState,
    dcdisc_step,
    max_stepsize,
    pdelta_spectrum_check,
)
from dacsim.engine import (
    SWEEP_BLOCK,
    SWEEP_SUBSTEPS,
    DivergenceError,
    integrate,
    simulate_discrete,
)
from dacsim.graphs import build_digraph, laplacian, topology_preset
from dacsim.protocols import AlgorithmParams
from dacsim.signals import InputSet, make_signal, preset_scenario
from conftest import random_balanced_strongly_connected, two_node_pair
from oracles import pdelta_eigenvalues


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

    @staticmethod
    def ring_run(delta):
        """A short dcdisc run on the unit ring, where alpha = beta = 1 give
        the bound 1."""
        return simulate_discrete(topology_preset("fig1a"), constants([0.0] * 6),
                                 AlgorithmParams(1.0, 1.0), np.zeros(6), np.zeros(6),
                                 delta, num_steps=4)

    @staticmethod
    def ring_cli(tmp_path, capsys, delta):
        """``dacsim run`` of the same ring at delta: (exit code, stderr)."""
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({
            "name": "ring", "graph": {"preset": "fig1a"}, "protocol": "dcdisc",
            "params": {"alpha": 1.0, "beta": 1.0, "delta": delta},
            "inputs": {"signals": [{"kind": "constant", "params": {"value": 0.0}}] * 6},
            "horizon": 4 * delta, "tail_start": 2 * delta}))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_paper_operating_point_admissible(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = self.ring_run(0.5)
        assert traj.meta["bound"] == 1.0

    def test_inadmissible_warns_not_raises(self, tmp_path, capsys):
        # the run goes on quietly and records delta and the bound; dacsim run
        # prints one plain line for it, with no source path or code line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = self.ring_run(1.5)
        assert traj.times.size == 5
        assert (traj.meta["delta"], traj.meta["bound"]) == (1.5, 1.0)
        assert self.ring_cli(tmp_path, capsys, 1.5) == (
            0, "ring: stepsize delta=1.5 is not below the sufficient bound 1; "
               "convergence is not guaranteed\n")

    def test_stepsize_type_invariant(self, tmp_path, capsys):
        # 0 < delta < bound runs without the line, delta = bound prints it,
        # delta <= 0 raises; the library itself never warns
        for delta, noted in ((0.3, False), (1.0, True)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.ring_run(delta)
            code, err = self.ring_cli(tmp_path, capsys, delta)
            assert code == 0 and ("not below the sufficient bound" in err) == noted
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="positive"):
                self.ring_run(bad)


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

    def test_jordan_pair_semi_convergent(self):
        # alpha = beta lambda for lambda = 2 of fig1a's L gives A a Jordan
        # pair at -2, which the 2n x 2n eigensolver splits past the circle
        # (1.0000000204); the exact moduli but the structural 1 are at most
        # |1 - delta (1 + sqrt(3) i) / 2| = 1 - 1.25e-9
        rep = pdelta_spectrum_check(topology_preset("fig1a"), 2.0, 1.0, 1.0 - 2.5e-9)
        assert rep.semi_convergent
        assert rep.unit_eigenvalue_count == 1
        assert abs(rep.max_other_modulus - (1.0 - 1.25e-9)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.floats(0.3, 3.0),
           st.floats(0.3, 3.0), st.floats(0.05, 3.5))
    def test_closed_form_matches_the_whole_matrix(self, seed, n, alpha, beta, fraction):
        g = random_balanced_strongly_connected(np.random.default_rng(seed), n)
        lam = np.linalg.eigvals(laplacian(g))
        assume(np.abs(alpha - beta * lam).min() >= 0.05 * alpha)  # no Jordan pair
        delta = fraction * max_stepsize(alpha, beta, float(g.out_degrees.max()))
        rep = pdelta_spectrum_check(g, alpha, beta, delta)
        full = pdelta_eigenvalues(g, alpha, beta, delta)
        gap = np.abs(rep.eigenvalues[:, None] - full[None, :])
        assert gap.min(axis=1).max() <= 1e-9 and gap.min(axis=0).max() <= 1e-9
        moduli = np.sort(np.abs(full))
        assert np.abs(np.sort(np.abs(rep.eigenvalues)) - moduli).max() <= 1e-9
        # the whole matrix's verdict, where no other modulus is near the circle
        others = np.delete(moduli, np.abs(moduli - 1.0).argmin())
        if np.abs(others - 1.0).min() > 1e-6:
            assert rep.semi_convergent == (others.max() < 1.0)


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
    # iterates, stepped in sub-blocks from anchors, must agree with
    # dcdisc_step applied k times to roundoff (the bound TestFusedStep
    # applies against the literal update)
    rng = np.random.default_rng(21)
    g = random_balanced_strongly_connected(rng, 5)
    inputs = InputSet(signals=preset_scenario("sampled_bias", seed=3).signals[:5])
    p = AlgorithmParams(alpha=0.8, beta=0.6)
    z0, v0 = rng.uniform(-1, 1, (2, 5))
    traj = simulate_discrete(g, inputs, p, z0, v0, delta=0.3, num_steps=40)
    s = DiscreteState.initial(z0, v0, inputs)
    for k in range(41):
        scale = max(1.0, np.abs(s.z).max(), np.abs(s.v).max())
        assert np.abs(traj.z[k] - s.z).max() <= 1e-12 * scale
        assert np.abs(traj.v[k] - s.v).max() <= 1e-12 * scale
        assert np.abs(traj.x[k] - s.x_out).max() <= 1e-12 * max(scale, np.abs(s.x_out).max())
        s = dcdisc_step(s, g, inputs, p, 0.3)
    np.testing.assert_array_equal(traj.avg_u, inputs.values(traj.times).mean(axis=1))


def test_divergence_reports_first_bad_iterate():
    # delta just past the bound: |eig P| = 1.02, so the state first passes
    # 1e12 well inside the run's second block of iterations
    g, inputs, p = topology_preset("fig1a"), preset_scenario("case2"), AlgorithmParams(1.0, 1.0)
    delta = 1.01
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


# step counts across the seams of the run's sub-blocks and chunks, the last
# one leaving a partial chunk that ends in a short sub-block
SEAM_STEPS = (1, SWEEP_SUBSTEPS - 1, SWEEP_SUBSTEPS, SWEEP_SUBSTEPS + 1,
              SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
              2 * SWEEP_BLOCK + SWEEP_SUBSTEPS + 5)


class TestFusedStep:
    """simulate_discrete steps (x, v), x = z + u, in sub-blocks of
    SWEEP_SUBSTEPS rows from anchors that follow one another through
    N_s = P^s - I.  The literal update of (z, v) is its oracle across the
    sub-block and chunk seams: to 1e-12 of the state below the stepsize
    bound, and past it both must diverge at the same row."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
           alpha=st.floats(0.1, 5.0), beta=st.floats(0.1, 5.0),
           fraction=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 3.0)),
           num_steps=st.sampled_from(SEAM_STEPS))
    @example(seed=105, n=10, alpha=1.05, beta=2.8764746292722427, fraction=0.9249957730837303,
             num_steps=4133)
    def test_run_matches_hand_iteration(self, seed, n, alpha, beta, fraction, num_steps):
        rng = np.random.default_rng(seed)
        g = random_balanced_strongly_connected(rng, n)
        delta = fraction * max_stepsize(alpha, beta, float(g.out_degrees.max()))
        inputs = InputSet(signals=tuple(
            make_signal("sampled-piecewise-constant", values=list(rng.normal(size=8)),
                        hold=float(rng.uniform(0.5, 2.0)))
            for _ in range(n)))
        z0, v0 = rng.uniform(-1, 1, (2, n))
        u = inputs.values(np.arange(num_steps + 1) * delta)
        lap = laplacian(g)
        z, v = [z0], [v0]
        while len(z) <= num_steps and np.abs(np.r_[z[-1], v[-1]]).max() <= 1e12:
            k = len(z) - 1
            z_next, v_next = hand_iteration(lap, z[k], v[k], u[k], alpha, beta, delta)
            z.append(z_next)
            v.append(v_next)
        z, v = np.array(z), np.array(v)
        diverged = not np.abs(np.hstack((z, v))[-1]).max() <= 1e12
        if diverged:
            with pytest.raises(DivergenceError) as err:
                simulate_discrete(g, inputs, AlgorithmParams(alpha, beta), z0, v0,
                                  delta=delta, num_steps=num_steps)
            assert err.value.t == (len(z) - 1) * delta
            traj = err.value.partial
        else:
            traj = simulate_discrete(g, inputs, AlgorithmParams(alpha, beta), z0, v0,
                                     delta=delta, num_steps=num_steps)
        assert traj.times.size == len(z)  # cut after the first bad row
        # Past the bound, roundoff is damped slowly or not at all, and the
        # literal recurrence pins its rows down only loosely: repeated
        # dcdisc_step calls stand 1.5e-11 of a row's scale from it after
        # 1025 steps of a delta = 2 / alpha draw.  P^s can also grow
        # polynomially there, and every anchor repeats N_s's rounding: the
        # run stood up to 4.7e-10 from it over 3 000 such draws.
        tol = 1e-12 if fraction < 1 else 1e-8
        scale = tol * np.maximum(1.0, np.abs(np.hstack((z, v))).max(axis=1))
        assert (np.abs(traj.z - z).max(axis=1) <= scale).all()
        assert (np.abs(traj.v - v).max(axis=1) <= scale).all()
        u = u[:len(z)]
        assert (np.abs(traj.x - (z + u)).max(axis=1)
                <= np.maximum(scale, tol * np.abs(u).max(axis=1))).all()
        sums = traj.v.sum(axis=1)
        assert np.abs(sums - sums[0]).max() <= tol * max(1.0, np.abs(traj.v).max())
        # simulate_discrete rejects delta = 0; dcdisc_step runs the same kernel
        k = (traj.times.size - 1) // 2
        s = DiscreteState(z=traj.z[k], v=traj.v[k], k=k, x_out=traj.x[k])
        nxt = dcdisc_step(s, g, inputs, AlgorithmParams(alpha, beta), 0.0)
        assert np.array_equal(nxt.z, s.z) and np.array_equal(nxt.v, s.v)

    def test_a_zero_state_stays_at_rest_when_n_s_overflows(self):
        # delta = 1e10 overflows (I + N)^s; from a zero state with zero
        # inputs every row stays exactly zero, as when stepping row by row
        traj = simulate_discrete(topology_preset("fig1a"), constants([0.0] * 6),
                                 AlgorithmParams(1.0, 1.0), np.zeros(6), np.zeros(6),
                                 1e10, num_steps=SWEEP_BLOCK + 1)
        assert not np.any(traj.z) and not np.any(traj.v)

    def test_large_inputs_alone_are_no_divergence(self):
        # the check takes the extremes of whole (x, v, z) rows but reads
        # (v, z): equal inputs of 5e12 put x past the limit while z and v
        # stay near rest, as in the literal update
        traj = simulate_discrete(topology_preset("fig1a"), constants([5e12] * 6),
                                 AlgorithmParams(1.0, 1.0), np.zeros(6), np.zeros(6),
                                 0.1, num_steps=SWEEP_BLOCK + 1)
        assert np.abs(traj.x).min() > 1e12 > 1.0 > np.abs(np.hstack((traj.z, traj.v))).max()

    def test_partial_trajectory_is_cut_after_the_bad_row(self):
        g, inputs, p = topology_preset("fig1a"), preset_scenario("case2"), AlgorithmParams(1.0, 1.0)
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
