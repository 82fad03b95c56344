import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dacsim.bounds import (
    BoundInputs,
    _scan_affine_maps,
    tracking_bound_curve,
    transient_bound_s,
    ultimate_bound,
)
from dacsim.engine import pi_udot_series, simulate_protocol
from dacsim.graphs import topology_preset
from dacsim.protocols import AgentState, AlgorithmParams
from dacsim.signals import InputSet, make_signal, preset_scenario
from conftest import ring_run

RING_LAMBDA2 = 0.5


def bound_inputs(alpha=1.0, beta=1.0, y0=1.0, w0=1.0, **kw):
    return BoundInputs(alpha=alpha, beta=beta, lambda_hat_2=RING_LAMBDA2,
                       y0_norm=y0, w0_norm=w0, **kw)


class TestZeroSystemEquilibrium:
    """The equilibrium a run predicts: every error x - avg(u) goes to
    -(1/(alpha N)) Sum v^j(0) and every integral state to the mean of v(0)."""

    def test_two_agents(self):
        traj, _, _ = ring_run(2, {"alpha": 1.0, "beta": 1.0}, {"v0": [1.0, 1.0]})
        assert traj.meta["offset_prediction"] == pytest.approx(-1.0)
        assert traj.v[-1].mean() == pytest.approx(1.0)

    def test_balanced_start(self):
        traj, _, _ = ring_run(2, {"alpha": 5.0, "beta": 1.0}, {"v0": [2.0, -2.0]})
        assert traj.meta["offset_prediction"] == 0.0

    def test_six_agents(self):
        traj, _, _ = ring_run(6, {"alpha": 2.0, "beta": 1.0}, {"v0": [1.0] * 6})
        assert traj.meta["offset_prediction"] == pytest.approx(-0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_run(0, {"alpha": 1.0, "beta": 1.0}, {})


class TestTransientBound:
    def test_value_at_zero(self):
        b = bound_inputs(alpha=2.0, y0=3.0, w0=4.0)
        assert transient_bound_s(0.0, b) == pytest.approx(2 * 3.0 + 4.0 / 2.0)

    def test_zero_initial_data(self):
        b = bound_inputs(y0=0.0, w0=0.0)
        assert all(transient_bound_s(t, b) == 0.0 for t in (0.0, 1.0, 10.0))

    def test_confluent_branch_is_the_limit(self):
        # approach alpha -> beta*lam from both sides with a 1e-6 gap
        blam = RING_LAMBDA2
        confluent = bound_inputs(alpha=blam)
        for sign in (+1.0, -1.0):
            near = bound_inputs(alpha=blam + sign * 1e-6)
            for t in np.linspace(0.01, 10.0, 40):
                a = transient_bound_s(float(t), near)
                c = transient_bound_s(float(t), confluent)
                assert abs(a - c) <= 1e-4 * c

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transient_bound_s(-0.5, bound_inputs())

    @pytest.mark.parametrize("alpha,kappa", [(1.0, None), (RING_LAMBDA2, None), (0.3, 2.5)])
    def test_array_matches_scalar(self, alpha, kappa):
        # generic, confluent (alpha = beta lam) and switching-mode envelopes
        extra = {} if kappa is None else {"kappa": kappa, "lambda_hat_sigma": 0.4}
        b = bound_inputs(alpha=alpha, y0=1.5, w0=0.7, **extra)
        grid = np.linspace(0.0, 30.0, 301)
        values = transient_bound_s(grid, b)
        assert values.shape == grid.shape
        np.testing.assert_allclose(values, [transient_bound_s(float(t), b) for t in grid],
                                   rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            transient_bound_s(np.array([0.0, -1e-9]), b)

    def test_switching_mode_scales_transition_terms(self):
        plain = bound_inputs()
        scaled = bound_inputs(kappa=2.0, lambda_hat_sigma=RING_LAMBDA2)
        # t=0: only the kappa e^{-beta lam t} ||y0|| term differs
        assert scaled.effective_kappa == 2.0
        assert transient_bound_s(0.0, scaled) == pytest.approx(
            transient_bound_s(0.0, plain) + 1.0)
        assert transient_bound_s(3.0, scaled) > transient_bound_s(3.0, plain)


def tracking_bound_at(t, b, pi_udot_norm, quad_step=1e-3):
    """The tracking envelope at one time t: ``tracking_bound_curve`` on
    linspace(0, t) at about quad_step resolution, read at its end."""
    grid = np.linspace(0.0, t, max(2, math.ceil(t / quad_step) + 1))
    samples = np.array([pi_udot_norm(float(tau)) for tau in grid])
    return float(tracking_bound_curve(grid, b, samples).values[-1])


class TestTrackingBound:
    def test_static_inputs_reduce_to_s(self):
        b = bound_inputs(y0=2.0, w0=1.0)
        for t in (0.0, 0.7, 5.0):
            assert tracking_bound_at(t, b, lambda tau: 0.0) == pytest.approx(
                transient_bound_s(t, b))

    def test_constant_disagreement_saturates_at_ultimate_bound(self):
        gamma = math.sqrt(2.0)
        b = bound_inputs(y0=0.0, w0=0.0, gamma=gamma)
        limit = ultimate_bound(1.0, RING_LAMBDA2, gamma)
        val = tracking_bound_at(60.0, b, lambda tau: gamma, quad_step=5e-3)
        assert val == pytest.approx(limit, rel=1e-3)

    def test_curve_matches_pointwise_evaluation(self):
        b = bound_inputs(y0=1.0, w0=0.5, udot0_norm=2.0)
        f = lambda tau: abs(math.sin(0.8 * tau))
        grid = np.linspace(0.0, 6.0, 1201)
        curve = tracking_bound_curve(grid, b, np.array([f(t) for t in grid]))
        for idx in (0, 300, 800, 1200):
            t = float(grid[idx])
            assert curve.values[idx] == pytest.approx(
                tracking_bound_at(t, b, f, quad_step=5e-3), rel=1e-5, abs=1e-12)


def fading_integral(grid, f, blam):
    """The envelope's fading integral alone: with zero initial data s(t) and
    the ||du(0)|| term are exactly 0 and kappa is 1, so the curve is I."""
    b = BoundInputs(alpha=1.0, beta=blam, lambda_hat_2=1.0, y0_norm=0.0, w0_norm=0.0)
    return tracking_bound_curve(grid, b, f).values


# decay exponents beta lam h up to 800, past e^-745, where one decay
# underflows, and from 354 on, where a product of two is subnormal
steps = st.floats(min_value=1e-4, max_value=2.0)
rates = st.floats(min_value=1e-3, max_value=400.0)
samples = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3))


class TestFadingScan:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=10.0), st.lists(steps, max_size=300),
           rates, st.data())
    @example(t0=0.0, hs=[], blam=1.0, data=None)  # one point
    @example(t0=0.5, hs=[0.1], blam=1.0, data=None)  # two points
    @example(t0=0.0, hs=[0.5] * 64, blam=720.0, data=None)  # subnormal products
    @example(t0=0.0, hs=[1.0] * 64, blam=750.0, data=None)  # the decays underflow
    def test_matches_the_sequential_recurrence(self, t0, hs, blam, data):
        # non-uniform grids, f drawn or identically 0.  Up to 300 steps: a
        # decay over m steps, formed by repeated squaring, is about m ulps
        # off, so elementwise the scan stays within 300 ulps < 1e-13 of the
        # loop; longer grids are held to the column's largest value below
        grid = t0 + np.concatenate(([0.0], np.cumsum(hs)))
        if data is None or data.draw(st.booleans(), label="f = 0"):
            f = np.zeros(grid.size)
        else:
            f = np.array(data.draw(st.lists(samples, min_size=grid.size, max_size=grid.size)))
        ref = oracles.fading_integral(grid, f, blam)
        # below the normal range the scan flushes products to 0
        np.testing.assert_allclose(fading_integral(grid, f, blam), ref, rtol=1e-13, atol=1e-300)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_long_grids_match_on_the_column_scale(self, seed):
        # run-sized grids, with bursts of f and long decaying stretches, held
        # to 1e-12 of the column's largest value, as the bundled outputs are
        # (in 40 such draws the gap was at most 2.1e-14 of it)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1000, 40001))
        h = 10 ** rng.uniform(-4, -1)
        grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5 * h, 1.5 * h, n - 1))))
        f = np.abs(rng.normal(size=n)) * (rng.random(n) < rng.uniform(0.05, 1.0))
        f[int(rng.integers(n)):] = 0.0
        blam = 10 ** rng.uniform(-3, 2)
        ref = oracles.fading_integral(grid, f, blam)
        gap = np.abs(fading_integral(grid, f, blam) - ref).max()
        assert gap <= 1e-12 * ref.max(), gap / ref.max()

    def test_an_impulse_decays_through_the_normal_range(self):
        # I_k = d^(k-1) I_1 falls by e^-40 a step, to 2e-296 at the end: the
        # scan may flush no product whose term is still in the normal range
        grid = np.arange(18.0)
        f = np.zeros(grid.size)
        f[0] = 1.0
        ref = oracles.fading_integral(grid, f, 40.0)
        assert 1e-300 < ref[-1] < 1e-290
        np.testing.assert_allclose(fading_integral(grid, f, 40.0), ref, rtol=1e-13, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=3000), st.floats(min_value=1e-3, max_value=0.5),
           st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=1e-3, max_value=1e3))
    def test_constant_samples_give_the_geometric_sum(self, n, h, blam, value):
        # I_k = tau (1 - d^k) / (1 - d), d the float decay the curve uses;
        # 1 - d^k = -expm1(k ln d) and 1 - d = -expm1(ln d) keep both to a
        # few ulps where d is near 1
        grid = h * np.arange(n + 1)
        d = math.exp(-blam * h)
        tau = 0.5 * h * (d * value + value)
        k = np.arange(n + 1)
        closed = tau * -np.expm1(k * math.log(d)) / -math.expm1(math.log(d))
        got = fading_integral(grid, np.full(n + 1, value), blam)
        np.testing.assert_allclose(got, closed, rtol=1e-12, atol=0.0)

    def test_underflowing_products_cost_no_more_than_normal_ones(self):
        # a product of two decays e^-360 is subnormal, about twenty times
        # slower to multiply than a normal one; the scan flushes it to 0 and
        # stops, so the whole scan takes less than one with decays near 1
        n = 2 ** 15
        c = np.random.default_rng(3).uniform(0.0, 1.0, n)

        def best(decay):
            times = []
            for _ in range(7):
                a, cc = np.full(n, decay), c.copy()
                t0 = time.perf_counter()
                _scan_affine_maps(a, cc)
                times.append(time.perf_counter() - t0)
            return min(times)

        normal, underflowing = best(math.exp(-1e-3)), best(math.exp(-360.0))
        assert underflowing <= 1.2 * normal, (underflowing, normal)


class TestUltimateBound:
    def test_continuous_formula(self):
        assert ultimate_bound(1.0, 0.5, math.sqrt(2.0)) == pytest.approx(2 * math.sqrt(2.0))

    def test_discrete_formula(self):
        assert ultimate_bound(1.0, 0.5, math.sqrt(2.0), delta=0.5) == pytest.approx(4 * math.sqrt(2.0))

    def test_zero_disagreement(self):
        assert ultimate_bound(2.0, 0.3, 0.0) == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            beta, lam, gamma = rng.uniform(0.1, 5.0, 3)
            base = ultimate_bound(beta, lam, gamma)
            assert ultimate_bound(beta * 1.5, lam, gamma) < base or gamma == 0
            assert ultimate_bound(beta, lam * 1.5, gamma) < base or gamma == 0
            assert ultimate_bound(beta, lam, gamma * 1.5) > base or gamma == 0

    def test_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            ultimate_bound(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            ultimate_bound(1.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            ultimate_bound(1.0, 0.5, 1.0, delta=0.0)


class TestConvergenceRate:
    """The run's fitted decay rates against min(alpha, beta Re(lambda_2)),
    capped by a motion gain theta; Re(lambda_2) = 0.5 on the six-ring."""

    X0 = [1.0, -2.0, 0.5, 3.0, -1.0, 0.25]

    def test_ring_rates(self):
        _, rep, _ = ring_run(6, {"alpha": 1.0, "beta": 1.0}, {"x0": self.X0}, horizon=60.0)
        assert rep.fitted_rate == pytest.approx(np.full(6, 0.5), abs=0.05)

    def test_motion_gain_floor(self):
        # z starts apart from x, so x - z decays at theta alone
        _, rep, _ = ring_run(6, {"alpha": 1.0, "beta": 1.0, "theta": 0.1},
                             {"x0": self.X0, "z0": [0.5 * x for x in self.X0]},
                             horizon=200.0, protocol="dc2")
        assert rep.fitted_rate == pytest.approx(np.full(6, 0.1), abs=0.01)

    def test_alpha_limited(self):
        _, rep, _ = ring_run(6, {"alpha": 0.2, "beta": 1.0}, {"x0": self.X0}, horizon=60.0)
        assert rep.fitted_rate == pytest.approx(np.full(6, 0.2), abs=0.02)


class TestZeroErrorClassCheck:
    def test_identical_constants_hold_a(self):
        inputs = InputSet(signals=(make_signal("constant", value=2.0),) * 4)
        check = oracles.zero_error_class_check(inputs, alpha=3.0, grid=np.linspace(20, 40, 400))
        assert check.holds_a and check.holds_b
        assert check.evidence == "numeric evidence"

    def test_case1_offsets_fail_a_hold_b(self):
        inputs = preset_scenario("case1")
        check = oracles.zero_error_class_check(inputs, alpha=1.0, grid=np.linspace(20, 40, 800))
        assert not check.holds_a    # the static offsets 3..1 persist
        assert check.holds_b        # differentiation kills them

    def test_offset_sinusoids_hold_b(self):
        sine = make_signal("sine", amplitude=1.0, frequency=1.0)
        signals = tuple(
            make_signal("sum-of-terms", terms=[sine, make_signal("constant", value=c)])
            for c in (3.0, 4.0, 5.0, 4.0, -1.5, 1.0))
        check = oracles.zero_error_class_check(InputSet(signals=signals), alpha=0.7,
                                               grid=np.linspace(5, 25, 500))
        assert check.holds_b and not check.holds_a

    def test_discrete_analogue_on_sampled_preset(self):
        inputs = preset_scenario("sampled_bias", seed=4)
        check = oracles.zero_error_class_check(inputs, alpha=1.0,
                                               grid=np.linspace(10, 60, 300), delta=0.5)
        assert check.holds_b        # common jumps: second difference is common
        assert not check.holds_a    # biases persist in Delta u + delta alpha u

    def test_short_grid_rejected(self):
        inputs = InputSet(signals=(make_signal("constant", value=1.0),))
        with pytest.raises(ValueError, match="grid"):
            oracles.zero_error_class_check(inputs, alpha=1.0, grid=np.linspace(0, 1, 5))


class TestBoundDomination:
    def test_homogeneous_trajectories_under_s(self, ring6):
        # 20 random starts, generic and confluent regimes
        rng = np.random.default_rng(99)
        for alpha in (1.0, 0.5):
            y0 = rng.uniform(-5, 5, (6, 20))
            w0 = rng.uniform(-5, 5, (6, 20))
            times, ys, _ = oracles.simulate_zero_system(ring6, alpha, 1.0, y0, w0, h=5e-3, T=30.0)
            for b in range(20):
                bi = BoundInputs(alpha=alpha, beta=1.0, lambda_hat_2=RING_LAMBDA2,
                                 y0_norm=float(np.linalg.norm(y0[:, b])),
                                 w0_norm=float(np.linalg.norm(w0[:, b])))
                s_vals = transient_bound_s(times, bi)
                shift = w0[:, b].sum() / (alpha * 6)
                lhs = np.linalg.norm(ys[:, :, b] + shift, axis=1)
                assert np.all(lhs <= s_vals * (1.0 + 1e-6))

    def test_tracking_error_under_full_bound(self, ring6):
        # arbitrary (x0, v0), nonzero sum(v0): the offset-corrected error obeys
        # the envelope at every stored point
        rng = np.random.default_rng(5)
        inputs = preset_scenario("case2")
        alpha, beta = 3.0, 10.0
        x0 = rng.uniform(-2, 2, 6)
        v0 = rng.uniform(-2, 2, 6)
        st = AgentState(x=x0, v=v0)
        traj = simulate_protocol("dc1", ring6, inputs, AlgorithmParams(alpha, beta),
                                 st, h=1e-3, T=20.0)
        series, _ = pi_udot_series(inputs, traj.times)
        u0, du0 = inputs.eval_all(0.0)
        bi = BoundInputs.from_initial(x0, v0, u0, du0, alpha, beta,
                                      lambda_hat_2=RING_LAMBDA2,
                                      gamma=float(series.max()))
        curve = tracking_bound_curve(traj.times, bi, series)
        offset = -v0.sum() / (alpha * 6)
        lhs = np.abs(traj.errors - offset).max(axis=1)
        assert np.all(lhs <= curve.values * (1.0 + 1e-6))


class TestValidation:
    def test_switching_fields_must_pair(self):
        with pytest.raises(ValueError, match="switching"):
            BoundInputs(alpha=1.0, beta=1.0, lambda_hat_2=0.5,
                        y0_norm=0.0, w0_norm=0.0, kappa=2.0)

    def test_positive_spectral_gap_required(self):
        with pytest.raises(ValueError):
            BoundInputs(alpha=1.0, beta=1.0, lambda_hat_2=0.0, y0_norm=0.0, w0_norm=0.0)
