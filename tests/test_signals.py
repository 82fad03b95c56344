import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim.config import load_scenario
from dacsim.signals import (
    InputSet,
    disagreement_gamma,
    discrete_disagreement_gamma,
    eval_input,
    make_signal,
    network_average,
    preset_scenario,
    signal_from_json,
    signal_to_json,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "dacsim" / "scenarios"


def constants(values):
    return InputSet(signals=tuple(make_signal("constant", value=v) for v in values))


class TestEvalInput:
    def test_case1_agent1_at_zero(self):
        sig = preset_scenario("case1").signals[0]
        value, deriv = eval_input(sig, 0.0)
        assert value == pytest.approx(3.5, abs=1e-12)       # 5 sin 0 + 1/2 + 3
        assert deriv == pytest.approx(4.75, abs=1e-12)      # 5 cos 0 - 1/4

    def test_constant(self):
        sig = make_signal("constant", value=2.0)
        assert eval_input(sig, 13.7) == (2.0, 0.0)

    def test_sampled_derivative_zero_between_samples(self):
        sig = preset_scenario("sampled_bias", seed=3).signals[2]
        assert eval_input(sig, 0.7)[1] == 0.0
        assert eval_input(sig, 5.3)[1] == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_input(make_signal("constant", value=1.0), -0.1)

    def test_case1_formula_oracle(self):
        # direct formula, written out independently of the signal machinery
        sig = preset_scenario("case1").signals[0]
        for t in (0.3, 1.7, 8.0, 25.5):
            assert sig.value(t) == pytest.approx(5 * math.sin(t) + 1 / (t + 2) + 3, rel=1e-14)
            assert sig.derivative(t) == pytest.approx(5 * math.cos(t) - (t + 2) ** -2, rel=1e-12)

    def test_step_modulated_right_continuity(self):
        sig = preset_scenario("saturation").signals[0]
        carrier = lambda t: 4 * math.cos(0.5 * t) + 10
        assert sig.value(9.999) == pytest.approx(carrier(9.999))
        assert sig.value(10.0) == 0.0          # gate drops at its breakpoint
        assert sig.derivative(10.0) == 0.0     # right-hand derivative
        assert sig.value(20.0) == pytest.approx(carrier(20.0))
        assert sig.derivative(20.0) == pytest.approx(-2 * math.sin(10.0))


class TestNetworkAverage:
    def test_two_constants(self):
        assert network_average(constants([1.0, 3.0]), 5.0) == (2.0, 0.0)

    def test_identical_signals(self):
        sig = make_signal("sine", amplitude=2.0, frequency=0.7)
        inputs = InputSet(signals=(sig,) * 5)
        t = 1.234
        avg, davg = network_average(inputs, t)
        assert avg == pytest.approx(sig.value(t), rel=1e-15)
        assert davg == pytest.approx(sig.derivative(t), rel=1e-15)

    def test_case1_constant_offsets(self):
        # offsets 3+4+5+4-1.5+1 enter the average as 15.5/6
        inputs = constants([3.0, 4.0, 5.0, 4.0, -1.5, 1.0])
        avg, _ = network_average(inputs, 0.0)
        assert avg == pytest.approx(15.5 / 6.0, rel=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        base = preset_scenario("case2")
        t = 3.21
        avg = network_average(base, t)
        for _ in range(5):
            perm = rng.permutation(6)
            shuffled = InputSet(signals=tuple(base.signals[i] for i in perm))
            assert network_average(shuffled, t) == pytest.approx(avg, rel=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            InputSet(signals=())


class TestDisagreementGamma:
    def test_identical_inputs_zero(self):
        sig = make_signal("sine", amplitude=3.0)
        stats = disagreement_gamma(InputSet(signals=(sig,) * 4), np.linspace(0, 10, 101))
        assert stats.gamma == 0.0

    def test_opposite_ramps(self):
        inputs = InputSet(signals=(make_signal("linear", slope=1.0),
                                   make_signal("linear", slope=-1.0)))
        stats = disagreement_gamma(inputs, np.linspace(0, 5, 11))
        assert stats.gamma == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.allclose(stats.mu, [1.0, 1.0])

    def test_static_inputs(self):
        stats = disagreement_gamma(constants([1.0, 2.0, 3.0]), np.linspace(0, 4, 20))
        assert stats.gamma == 0.0
        assert np.all(stats.mu == 0.0)

    def test_common_shift_invariance(self):
        grid = np.linspace(0, 12, 200)
        base = preset_scenario("case2")
        shift = make_signal("sum-of-terms", terms=[
            make_signal("sine", amplitude=7.0, frequency=2.3),
            make_signal("linear", slope=0.4)])
        shifted = InputSet(signals=tuple(
            make_signal("sum-of-terms", terms=[sig, shift]) for sig in base.signals))
        g0 = disagreement_gamma(base, grid).gamma
        g1 = disagreement_gamma(shifted, grid).gamma
        assert g1 == pytest.approx(g0, rel=1e-9, abs=1e-12)

    def test_discrete_variant_common_jumps_vanish(self):
        inputs = preset_scenario("sampled_bias", seed=5)
        # per-agent differences are identical (common process), so the
        # projected difference is zero up to roundoff
        assert discrete_disagreement_gamma(inputs, 0.5, 60) <= 1e-12


class TestPresets:
    def test_case1_values_at_zero(self):
        assert np.allclose(preset_scenario("case1").values(0.0),
                           [3.5, 4.25, 5.125, 14.0, -1.5, 1.0], atol=1e-12)

    def test_sampled_seed_determinism(self):
        a = preset_scenario("sampled_bias", seed=9)
        b = preset_scenario("sampled_bias", seed=9)
        c = preset_scenario("sampled_bias", seed=10)
        grid = np.arange(0.0, 30.0, 2.0)
        va = np.array([a.values(t) for t in grid])
        vb = np.array([b.values(t) for t in grid])
        vc = np.array([c.values(t) for t in grid])
        assert np.array_equal(va, vb)
        assert not np.array_equal(va, vc)

    def test_saturation_agent5_at_zero(self):
        vals = preset_scenario("saturation").values(0.0)
        assert vals[4] == pytest.approx(-5.0, abs=1e-12)   # gate(0)=1, sin 0 - 5

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scenario preset"):
            preset_scenario("case9")

    def test_sampled_biases_spread(self):
        inputs = preset_scenario("sampled_bias", seed=1)
        u = inputs.values(0.0)
        assert np.allclose(u - u[0], np.array([-0.55, 1.0, 0.6, -0.9, -0.6, 0.4]) + 0.55)


class TestDerivatives:
    def test_analytic_matches_central_difference(self):
        rng = np.random.default_rng(7)
        smooth = (preset_scenario("case1").signals
                  + preset_scenario("case2").signals)
        h = 1e-5
        for sig in smooth:
            for t in rng.uniform(0.1, 30.0, 100):
                analytic = sig.derivative(t)
                central = (sig.value(t + h) - sig.value(t - h)) / (2 * h)
                assert abs(analytic - central) <= 1e-5 * (1.0 + abs(analytic))

    def test_central_difference_mode(self):
        sig = make_signal("tanh", amplitude=2.0, rate=0.5,
                          derivative_mode="central_difference", h_d=1e-6)
        ref = make_signal("tanh", amplitude=2.0, rate=0.5)
        for t in (0.0, 0.5, 4.0):
            assert sig.derivative(t) == pytest.approx(ref.derivative(t), abs=1e-8)


class TestJson:
    def test_round_trip_nested(self):
        sig = preset_scenario("saturation").signals[1]
        again = signal_from_json(signal_to_json(sig))
        for t in (0.0, 3.3, 12.5, 26.0):
            assert again.value(t) == sig.value(t)
            assert again.derivative(t) == sig.derivative(t)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown signal kind"):
            make_signal("sawtooth", value=1.0)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown signal key"):
            signal_from_json({"kind": "constant", "params": {"value": 1}, "extra": 2})

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            make_signal("reciprocal-power", coefficient=1.0)


class TestArrayEvaluation:
    """One array call must agree with the scalar calls at every time."""

    KINDS = {
        "constant": make_signal("constant", value=2.5),
        "linear": make_signal("linear", slope=-0.3, intercept=1.0),
        "sine": make_signal("sine", amplitude=2.0, frequency=0.7, phase=0.2),
        "cosine": make_signal("cosine", amplitude=1.5, frequency=1.3, phase=-0.4),
        "atan": make_signal("atan", amplitude=2.0, rate=0.5, shift=-1.0),
        "tanh": make_signal("tanh", amplitude=-1.0, rate=2.0, shift=0.5),
        "reciprocal-power": make_signal("reciprocal-power", coefficient=1.0, shift=2.0, power=3.0),
        "exponential-decay": make_signal("exponential-decay", coefficient=10.0, rate=0.8),
        "step-modulated-composite": preset_scenario("saturation").signals[1],
        "sampled-piecewise-constant": preset_scenario("sampled_bias", seed=4).signals[3],
        "sum-of-terms": make_signal("sum-of-terms", terms=[
            preset_scenario("case1").signals[0],
            make_signal("sum-of-terms", terms=[
                make_signal("tanh", derivative_mode="central_difference", h_d=1e-5),
                make_signal("cosine", amplitude=0.5)])]),
    }

    def test_every_kind_covered(self):
        from dacsim.signals import SIGNAL_KINDS
        assert set(self.KINDS) == set(SIGNAL_KINDS)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_array_matches_scalar(self, kind):
        sig = self.KINDS[kind]
        # uniform points plus the breakpoints of the gate (10, 20, ...) and the hold (2, 4, ...)
        grid = np.concatenate((np.linspace(0.0, 50.0, 997), np.arange(0.0, 50.0, 2.0)))
        values, derivs = sig.value(grid), sig.derivative(grid)
        assert values.shape == derivs.shape == grid.shape
        scalar_v = np.array([sig.value(float(t)) for t in grid])
        scalar_d = np.array([sig.derivative(float(t)) for t in grid])
        # numpy's array and scalar power loops may round one ulp apart
        for got, want in ((values, scalar_v), (derivs, scalar_d)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15 * np.abs(want).max())
        assert isinstance(sig.value(1.0), float) and isinstance(sig.derivative(1.0), float)

    def test_gate_right_continuous_at_exact_multiples(self):
        sig = make_signal("step-modulated-composite",
                          carrier=make_signal("constant", value=3.0), half_period=0.5)
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 0.5 - 1e-12, 1.0 - 1e-12])
        np.testing.assert_array_equal(sig.value(t), [3.0, 0.0, 3.0, 0.0, 3.0, 3.0, 0.0])
        np.testing.assert_array_equal(sig.derivative(t), np.zeros(7))

    def test_hold_right_continuous_at_exact_multiples(self):
        sig = make_signal("sampled-piecewise-constant", values=[1.0, 2.0, 3.0], hold=0.25)
        t = np.array([0.0, 0.25, 0.5, 0.75, 10.0, 0.25 - 1e-12, 0.5 - 1e-12])
        # past the last sample the final value holds
        np.testing.assert_array_equal(sig.value(t), [1.0, 2.0, 3.0, 3.0, 3.0, 1.0, 2.0])
        assert sig.value(0.5) == 3.0

    def test_central_difference_near_zero(self):
        h = 1e-3
        sig = make_signal("sine", derivative_mode="central_difference", h_d=h)
        t = np.array([0.0, 0.25 * h, h, 2 * h, 1.0])
        expected = []
        for s in t:
            lo = max(s - h, 0.0)  # one-sided below h: no sample before t = 0
            expected.append((math.sin(s + h) - math.sin(lo)) / (s + h - lo))
        np.testing.assert_allclose(sig.derivative(t), expected, rtol=1e-12)
        np.testing.assert_array_equal(sig.derivative(t), [sig.derivative(float(s)) for s in t])

    def test_input_set_shapes(self):
        inputs = preset_scenario("case1")
        assert inputs.values(3.0).shape == (6,)
        grid = np.linspace(0.0, 4.0, 9)
        table = inputs.values(grid)
        assert table.shape == (9, 6)
        np.testing.assert_array_equal(table[4], inputs.values(float(grid[4])))
        np.testing.assert_array_equal(inputs.derivatives(grid)[7],
                                      inputs.derivatives(float(grid[7])))
        with pytest.raises(ValueError, match="t >= 0"):
            inputs.values(np.array([0.0, -1e-3]))


class TestInputTable:
    def test_lookup_on_grid(self):
        from dacsim.signals import InputTable
        inputs = preset_scenario("case2")
        dt = 0.05
        table = InputTable.sample(inputs, np.arange(41) * dt, dt)
        for j in (0, 7, 40):
            u, du = table.eval_all(j * dt)
            np.testing.assert_array_equal(u, inputs.values(j * dt))
            np.testing.assert_array_equal(du, inputs.derivatives(j * dt))
        # a stage time computed another way still finds its sample
        u, _ = table.eval_all(0.3 + 0.5 * 0.1)
        np.testing.assert_array_equal(u, table.u[7])

    @pytest.mark.parametrize("t", [0.025, -0.05, 2.05])
    def test_off_grid_rejected(self, t):
        from dacsim.signals import InputTable
        table = InputTable.sample(preset_scenario("case2"), np.arange(41) * 0.05, 0.05)
        with pytest.raises(ValueError, match="sample time"):
            table.eval_all(t)


# ---------------------------------------------------------------------------
# one InputSet evaluation per distinct term
# ---------------------------------------------------------------------------

def same_bits(got, want):
    """Equal values with equal signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


SIGNED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0])


@st.composite
def term_dicts(draw, depth=0):
    kind = draw(st.sampled_from(
        ["constant", "linear", "sine", "cosine", "atan", "tanh", "reciprocal-power",
         "exponential-decay", "sampled-piecewise-constant", "step-modulated-composite"]
        if depth == 0 else ["constant", "sine", "linear"]))
    params = {
        "constant": lambda: {"value": draw(SIGNED)},
        "linear": lambda: {"slope": draw(SIGNED), "intercept": draw(SIGNED)},
        "sine": lambda: {"amplitude": draw(SIGNED), "frequency": draw(st.sampled_from([0.5, 1.0])),
                         "phase": draw(st.sampled_from([0.0, -0.0, 0.4]))},
        "cosine": lambda: {"amplitude": draw(SIGNED), "frequency": 2.0},
        "atan": lambda: {"amplitude": draw(SIGNED), "rate": 0.5, "shift": draw(SIGNED)},
        "tanh": lambda: {"amplitude": draw(SIGNED), "shift": draw(SIGNED)},
        "reciprocal-power": lambda: {"coefficient": draw(SIGNED), "shift": 2.0,
                                     "power": draw(st.sampled_from([1.0, 2.0]))},
        "exponential-decay": lambda: {"coefficient": draw(SIGNED), "rate": 0.8},
        "sampled-piecewise-constant": lambda: {"values": draw(st.lists(SIGNED, min_size=1, max_size=4)),
                                               "hold": 0.5},
        "step-modulated-composite": lambda: {"carrier": draw(term_dicts(depth + 1)),
                                             "half_period": 1.0},
    }[kind]()
    spec = {"kind": kind, "params": params}
    if draw(st.integers(0, 3)) == 0:
        spec.update(derivative_mode="central_difference", h_d=draw(st.sampled_from([1e-3, 1e-5])))
    return spec


@st.composite
def input_sets(draw):
    """Signals drawn from a small pool of term dicts, so that terms repeat:
    as one shared object, as equal dicts, or inside a nested sum."""
    pool = draw(st.lists(term_dicts(), min_size=1, max_size=4))
    objects = [signal_from_json(spec) for spec in pool]

    def term():
        i = draw(st.integers(0, len(pool) - 1))
        return objects[i] if draw(st.booleans()) else json.loads(json.dumps(pool[i]))

    signals = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(["term", "sum", "sum", "nested"]))
        if shape == "term":
            signals.append(signal_from_json(pool[draw(st.integers(0, len(pool) - 1))]))
            continue
        terms = [term() for _ in range(draw(st.integers(1, 4)))]
        if shape == "nested":
            terms.append(make_signal("sum-of-terms", terms=[term(), term()]))
        mode = draw(st.sampled_from(["analytic", "analytic", "central_difference"]))
        signals.append(make_signal("sum-of-terms", terms=terms, derivative_mode=mode, h_d=1e-4))
    return InputSet(signals=tuple(signals))


TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, 30.0),
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 30.0)),
             min_size=1, max_size=12).map(np.array),
)


class TestSharedTerms:
    @settings(max_examples=300, deadline=None)
    @given(inputs=input_sets(), t=TIMES)
    def test_set_matches_each_signal_alone(self, inputs, t):
        """Column by column, the set's values and derivatives are the
        signals' own, bit for bit, and each sum is its terms' sum()."""
        for derivative in (False, True):
            got = inputs.derivatives(t) if derivative else inputs.values(t)
            want = [sig.derivative(t) if derivative else sig.value(t) for sig in inputs.signals]
            assert same_bits(got, np.stack(want, axis=-1)), derivative
        for sig in inputs.signals:
            if sig.kind != "sum-of-terms":
                continue
            terms = [signal_from_json(x) if isinstance(x, dict) else x for x in sig.params["terms"]]
            assert same_bits(sig.value(t), sum(term.value(t) for term in terms))
            if sig.derivative_mode == "analytic":
                assert same_bits(sig.derivative(t), sum(term.derivative(t) for term in terms))

    @pytest.mark.parametrize("scenario", ["case1", "offset_sines"])
    def test_common_sine_is_evaluated_once(self, scenario, monkeypatch):
        # case1's preset shares one sine object; offset_sines.json writes six equal dicts
        inputs = load_scenario(SCENARIOS / f"{scenario}.json").build_inputs()
        calls = []
        sin, cos = np.sin, np.cos
        monkeypatch.setattr(np, "sin", lambda x: calls.append("sin") or sin(x))
        monkeypatch.setattr(np, "cos", lambda x: calls.append("cos") or cos(x))
        for t in (1.5, np.linspace(0.0, 4.0, 9)):
            inputs.values(t)
            assert calls == ["sin"]
            inputs.derivatives(t)
            assert calls == ["sin", "cos"]
            calls.clear()

    def test_terms_with_array_parameters_are_evaluated_unshared(self):
        held = make_signal("sampled-piecewise-constant", values=np.array([1.0, -2.0]), hold=0.5)
        signals = tuple(make_signal("sum-of-terms", terms=[held, make_signal("constant", value=c)])
                        for c in (1.0, 2.0))
        t = np.array([0.0, 0.75])
        assert same_bits(InputSet(signals=signals).values(t), [[2.0, 3.0], [-1.0, 0.0]])
