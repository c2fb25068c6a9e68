import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.controller import (
    OBSERVER_FORMS,
    ClassicPidController,
    GeneralizedController,
    HomogeneousController,
    closed_loop_tf,
    homogeneous_control,
    observer_tfs,
    reduce_to_pid,
    synthesize_gains,
)
from lumped_pid.errors import ConfigError, DimensionMismatchError, OrderMismatchError
from lumped_pid.polylti import Polynomial, binomial_poly, dc_gain, evaluate_at
from lumped_pid.quadrature import RECTANGULAR, TRAPEZOIDAL, Integrator


def generalized(n=2, b=1.0, omega=2.0, omega_f=10.0, dt=1e-3, **options):
    """The chain's GeneralizedController at these synthesis inputs."""
    return GeneralizedController(synthesize_gains(n, omega), omega_f, b, dt, **options)


def classic(n=2, b=1.0, omega=2.0, omega_f=10.0, dt=1e-3, rule=RECTANGULAR):
    """The chain's ClassicPidController at these synthesis inputs."""
    g = reduce_to_pid(n, omega, omega_f)
    return ClassicPidController(g.kp, g.ki, g.kd, b, dt, rule=rule)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0.0] * max(len(a.coeffs), len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Polynomial(out)


# each synthesis input is checked by a function that reads it: the order and
# omega by synthesize_gains (binomial_poly), omega_f by closed_loop_tf and b
# by a controller's constructor; the message names the input
SYNTHESIS = {"n": 2, "b": 1.0, "omega": 2.0, "omega_f": 10.0}
READER = {"n": lambda v: synthesize_gains(v["n"], v["omega"]),
          "omega": lambda v: synthesize_gains(v["n"], v["omega"]),
          "omega_f": lambda v: closed_loop_tf(v["n"], v["omega"], v["omega_f"]),
          "b": lambda v: generalized(**v)}
MESSAGE = {"n": r"^order n must be an integer", "omega": r"^omega:", "omega_f": r"^omega_f:",
           "b": r"^b:"}


class TestConfigValidation:
    def test_accepts_valid(self):
        for read in READER.values():
            read(SYNTHESIS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"b": 0.0},
            {"omega": 0.0},
            {"omega": -2.0},
            {"omega_f": 0.0},
            {"b": math.inf},
            {"omega": math.inf},
            {"omega_f": math.nan},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ConfigError, match=MESSAGE[key]):
            READER[key]({**SYNTHESIS, **kwargs})


class TestSynthesizeGains:
    def test_first_order(self):
        assert synthesize_gains(1, 5.0) == (5.0,)

    def test_second_order(self):
        assert synthesize_gains(2, 2.0) == (4.0, 4.0)

    def test_third_order_against_binomial(self):
        # oracle: binomial_poly(2,3) = [8,12,6,1], drop the leading term
        assert synthesize_gains(3, 2.0) == binomial_poly(2.0, 3).coeffs[:-1]
        assert synthesize_gains(3, 2.0) == (8.0, 12.0, 6.0)

    @pytest.mark.parametrize("n", [2.0, "2", True, False, 0, 21])
    def test_an_order_that_is_not_an_int_in_range_is_a_config_error(self, n):
        with pytest.raises(ConfigError, match=re.escape(
                f"order n must be an integer in [1, 20], got {n!r}")):
            synthesize_gains(n, 1.0)

    def test_all_positive(self):
        for n in range(1, 9):
            assert all(ai > 0 for ai in synthesize_gains(n, 0.7))

    def test_a_gain_that_rounds_to_0_is_a_config_error(self):
        with pytest.raises(ConfigError, match=re.escape(
                "omega = 1e-200 at order 2: (s + omega)**2 has a coefficient that rounds to 0, "
                "below the float range")):
            synthesize_gains(2, 1e-200)
        # a nonzero subnormal gain stands
        assert synthesize_gains(1, 5e-324) == (5e-324,)
        assert synthesize_gains(2, 1e-160) == (1e-160 ** 2, 2e-160)


class TestHomogeneousControl:
    def test_origin(self):
        assert homogeneous_control((4.0, 4.0), [0.0, 0.0]) == 0.0

    def test_single_term(self):
        assert homogeneous_control((4.0, 4.0), [1.0, 0.0]) == -4.0

    def test_hand_dot_product(self):
        # independent summation order: 8*0.5 + 12*(-1) + 6*2 = 4 - 12 + 12 = 4
        terms = [8.0 * 0.5, 12.0 * -1.0, 6.0 * 2.0]
        expected = -math.fsum(terms)
        got = homogeneous_control((8.0, 12.0, 6.0), [0.5, -1.0, 2.0])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-4.0, abs=1e-12)

    def test_dimension_mismatch(self):
        # homogeneous_control leaves the length check to the stepping controllers
        for z in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(DimensionMismatchError):
                HomogeneousController(synthesize_gains(2, 2.0), 1.0).step(z)


class TestObserverStep:
    """The integral-form observer f_hat = omega_f (z_{n-1} - int u_x dt) as
    GeneralizedController steps it."""

    def test_at_rest(self):
        gen = generalized(n=2)
        assert gen.step([0.0, 0.0]) == 0.0
        assert (gen.u_x, gen.f_hat) == (0.0, 0.0)

    @pytest.mark.parametrize("rule", [RECTANGULAR, TRAPEZOIDAL])
    def test_constant_ux_accumulation(self, rule):
        # closed form: with u_x = c and z1 = 0, f_hat(k dt) = -wf*c*k*dt;
        # a0 = omega^2 = 4 and z0 = -c/4 give u_x = c exactly
        wf, c, dt = 4.0, 0.7, 0.01
        gen = generalized(n=2, omega=2.0, omega_f=wf, dt=dt, rule=rule)
        for k in range(50):
            gen.step([-c / 4.0, 0.0])
            assert gen.u_x == c
            assert gen.f_hat == pytest.approx(-wf * c * k * dt, abs=1e-13)

    def test_first_order_lag_tracking(self):
        # closed loop on xdot = f + u with constant f: the estimate must trace
        # the lag response 1 - exp(-wf t) within discretization error.
        wf, omega, f_true, dt = 10.0, 2.0, 1.0, 1e-4
        gen = generalized(n=1, omega=omega, omega_f=wf, dt=dt)
        x = 0.0
        worst = 0.0
        for k in range(30000):
            u = gen.step([x])
            x += (f_true + u) * dt  # exact for input held over the step
            t = (k + 1) * dt
            worst = max(worst, abs(gen.f_hat - (1.0 - math.exp(-wf * t))))
        assert worst < 1e-3

    def test_seeded_integral_zeroes_initial_estimate(self):
        # seeding the integral with z_{n-1}(0) makes f_hat(0) exactly zero
        gen = generalized(n=1, seed_integral=True)
        gen.step([3.5])
        assert gen.f_hat == 0.0

    def test_rejects_bad_dt_and_rule(self):
        with pytest.raises(ConfigError):
            generalized(dt=0.0)
        with pytest.raises(ConfigError):
            generalized(rule="simpson")


class TestControlOutput:
    """u = (u_x - f_hat) / b. On the first step of an n = 1 loop with
    omega = 4 and omega_f = 1 at z = [1], u_x = -4 and f_hat = 1."""

    def test_zero(self):
        assert generalized(n=1).step([0.0]) == 0.0

    def test_arithmetic(self):
        assert generalized(n=1, b=2.0, omega=4.0, omega_f=1.0).step([1.0]) == -2.5

    def test_sign_flip_through_negative_b(self):
        assert generalized(n=1, b=-2.0, omega=4.0, omega_f=1.0).step([1.0]) == 2.5


class TestReductions:
    @pytest.mark.parametrize("omega", [2.0, 38.01493908756587])
    def test_pid_gains_are_built_on_synthesize_gains(self, omega):
        # with glibc 2.36, omega**2 (synthesize_gains) and omega * omega
        # differ by one ulp at the second omega; the PI/PID pair shares a0
        a0, a1 = synthesize_gains(2, omega)
        g = reduce_to_pid(2, omega, 7.0)
        assert (g.kd, g.kp, g.ki) == (a1 + 7.0, a0 + 7.0 * a1, 7.0 * a0)

    def test_pi_values(self):
        g = reduce_to_pid(1, 5.0, 20.0)
        assert (g.kp, g.ki, g.kd) == (25.0, 100.0, None)

    def test_pi_unit(self):
        g = reduce_to_pid(1, 1.0, 1.0)
        assert (g.kp, g.ki) == (2.0, 1.0)

    def test_pi_fractional(self):
        g = reduce_to_pid(1, 0.5, 4.0)
        assert (g.kp, g.ki) == (4.5, 2.0)

    def test_pid_values(self):
        g = reduce_to_pid(2, 2.0, 10.0)
        assert (g.kd, g.kp, g.ki) == (14.0, 44.0, 40.0)

    def test_pid_small_omega_f_approaches_pd(self):
        g = reduce_to_pid(2, 1.0, 1e-9)
        assert g.kd == pytest.approx(2.0, abs=1e-8)
        assert g.kp == pytest.approx(1.0, abs=1e-8)
        assert g.ki == pytest.approx(0.0, abs=1e-8)

    def test_pid_second_values(self):
        g = reduce_to_pid(2, 3.0, 6.0)
        assert (g.kd, g.kp, g.ki) == (12.0, 45.0, 54.0)

    def test_an_integral_gain_that_rounds_to_0_is_a_config_error(self):
        # ki = omega_f * omega, each factor a normal float
        with pytest.raises(ConfigError, match=re.escape(
                "omega = 1e-200 and omega_f = 1e-200 at order 1: (s + omega)**1 (s + omega_f) "
                "has a coefficient that rounds to 0, below the float range")):
            reduce_to_pid(1, 1e-200, 1e-200)
        assert reduce_to_pid(1, 1e-160, 1e-160).ki == 1e-160 * 1e-160

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError, match="requires n in {1, 2}, got 3"):
            reduce_to_pid(3, 2.0, 10.0)
        reduce_to_pid(1, 2.0, 10.0)
        reduce_to_pid(2, 2.0, 10.0)


class TestClassicPidStep:
    def test_zero_history(self):
        pid = classic(n=2, omega=2.0, omega_f=10.0)
        assert pid.step([0.0, 0.0]) == 0.0

    def test_the_order_is_one_without_kd(self):
        # PI gains (reduce_to_pid's kd is None) step one measurement
        assert (classic(n=1).n, classic(n=2).n) == (1, 2)
        with pytest.raises(DimensionMismatchError, match="expected 1 measurements, got 2"):
            ClassicPidController(25.0, 100.0, None, 1.0, 1e-3).step([0.0, 0.0])

    def test_measurement_count_checked(self):
        pid = classic(n=2, omega=2.0, omega_f=10.0)
        with pytest.raises(DimensionMismatchError, match="expected 2 measurements, got 1"):
            pid.step([0.0])

    def test_constant_error_accumulation(self):
        # u(k dt) = -44 - 40*k*dt under the rectangular rule
        dt = 0.01
        pid = classic(n=2, omega=2.0, omega_f=10.0, dt=dt)
        for k in range(40):
            u = pid.step([1.0, 0.0])
            assert u == pytest.approx(-44.0 - 40.0 * k * dt, abs=1e-12)


class TestClosedLoopTf:
    def test_first_order_denominator(self):
        tf = closed_loop_tf(1, 2.0, 10.0)
        assert tf.numerator.coeffs == (0.0, 1.0)
        assert tf.denominator.coeffs == (20.0, 12.0, 1.0)

    def test_dc_gain_zero_for_any_config(self):
        for n in (1, 2, 3):
            for omega in (0.5, 2.0, 5.0):
                assert dc_gain(closed_loop_tf(n, omega, 7.0)) == 0.0

    def test_second_order_denominator_reproduces_pid_gains(self):
        tf = closed_loop_tf(2, 2.0, 10.0)
        assert tf.denominator.coeffs == (40.0, 44.0, 14.0, 1.0)
        g = reduce_to_pid(2, 2.0, 10.0)
        assert tf.denominator.coeffs[:3] == (g.ki, g.kp, g.kd)


class TestObserverTfs:
    def test_high_frequency_rolloff(self):
        g_o, _ = observer_tfs(10.0)
        assert abs(evaluate_at(g_o, 1j * 1e6 * 10.0)) < 2e-6

    def test_minus_three_db_at_bandwidth(self):
        g_o, g_e = observer_tfs(7.0)
        assert abs(evaluate_at(g_o, 7j)) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert abs(evaluate_at(g_e, 7j)) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_complementary_pair_on_grid(self):
        g_o, g_e = observer_tfs(5.0)
        for w in [0.01, 0.1, 1.0, 5.0, 50.0, 500.0]:
            mo = abs(evaluate_at(g_o, 1j * w))
            me = abs(evaluate_at(g_e, 1j * w))
            assert mo * mo + me * me == pytest.approx(1.0, rel=1e-12)

    def test_coefficientwise_sum_is_one(self):
        g_o, g_e = observer_tfs(3.0)
        assert g_o.denominator == g_e.denominator
        total = poly_add(g_o.numerator, g_e.numerator)
        assert total.coeffs == g_o.denominator.coeffs

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            observer_tfs(0.0)


class TestIntegrator:
    def test_rectangular_excludes_current_sample(self):
        integ = Integrator(RECTANGULAR)
        assert integ.push(5.0, 0.1) == 0.0
        assert integ.push(3.0, 0.1) == pytest.approx(0.5)
        assert integ.push(0.0, 0.1) == pytest.approx(0.8)

    def test_trapezoidal_closes_panel(self):
        integ = Integrator(TRAPEZOIDAL)
        assert integ.push(5.0, 0.1) == 0.0
        assert integ.push(3.0, 0.1) == pytest.approx(0.4)

    def test_trapezoid_exact_for_linear_signal(self):
        integ = Integrator(TRAPEZOIDAL)
        dt = 0.01
        out = 0.0
        for k in range(101):
            out = integ.push(2.0 * k * dt, dt)
        assert out == pytest.approx(1.0, rel=1e-12)  # integral of 2t over [0,1]


class TestPidEquivalence:
    """The reduced generalized form is the classic PI/PID law under a shared
    rule, equal up to rounding for any measurement sequence."""

    @pytest.mark.parametrize("rule", [RECTANGULAR, TRAPEZOIDAL])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_classic_for_random_sequences(self, n, rule):
        rng = random.Random(1000 + n)
        for trial in range(6):
            config = dict(
                n=n,
                b=rng.choice([1.0, -0.5, 2.3]),
                omega=rng.uniform(0.2, 8.0),
                omega_f=rng.uniform(0.5, 40.0),
                dt=10 ** rng.uniform(-4, -2),
            )
            gen = generalized(**config, rule=rule, observer_form="pid")
            pid = classic(**config, rule=rule)
            worst = 0.0
            for _ in range(2000):
                z = [rng.uniform(-2, 2) for _ in range(n)]
                worst = max(worst, abs(gen.step(z) - pid.step(z)))
            assert worst <= 1e-9

    def test_integral_form_agrees_in_closed_loop(self):
        # Along a consistent zero-initial-condition trajectory (the reduction
        # integrates the derivative channels exactly, which assumes x(0)=0)
        # the literal-integral and reduced forms stay within quadrature error.
        dt = 1e-4
        gen_i = generalized(n=2, omega=2.0, omega_f=10.0, dt=dt, observer_form="integral")
        gen_p = generalized(n=2, omega=2.0, omega_f=10.0, dt=dt, observer_form="pid")
        x, v = 0.0, 0.0
        worst = 0.0
        for _ in range(5000):
            u_i = gen_i.step([x, v])
            u_p = gen_p.step([x, v])
            worst = max(worst, abs(u_i - u_p))
            a = 1.0 + u_i  # xddot = f + u, f = 1
            x += v * dt + 0.5 * a * dt**2
            v += a * dt
        assert worst < 0.01  # O(dt) quadrature difference, not equality


class TestGeneralizedController:
    def test_matches_primitive_composition(self):
        # the stateful stepper is the paper's formula: u_x = -sum a_i z_i,
        # f_hat = omega_f (z_{n-1} - sum of past u_x dt), u = (u_x - f_hat)/b
        b, omega_f, dt = 1.7, 6.0, 1e-3
        a = synthesize_gains(3, 1.5)
        gen = GeneralizedController(a, omega_f, b, dt)
        integral = 0.0
        rng = random.Random(5)
        for _ in range(200):
            z = [rng.uniform(-1, 1) for _ in range(3)]
            u_x = -sum(ai * zi for ai, zi in zip(a, z))
            f_hat = omega_f * (z[-1] - integral)
            expected = (u_x - f_hat) / b
            assert gen.step(z) == pytest.approx(expected, abs=1e-15)
            integral += u_x * dt

    def test_dimension_check(self):
        gen = generalized(n=2)
        with pytest.raises(DimensionMismatchError):
            gen.step([1.0])

    def test_seed_integral_option(self):
        gen = generalized(n=2, seed_integral=True)
        gen.step([0.5, 1.25])
        assert gen.f_hat == 0.0

    def test_rejects_unknown_form(self):
        with pytest.raises(ConfigError):
            generalized(observer_form="magic")

    def test_rejects_a_seed_for_the_pid_form(self):
        # the pid form integrates x, not u_x, and would ignore the seed
        with pytest.raises(ConfigError, match="^seed_integral: not read by observer_form 'pid'$"):
            generalized(observer_form="pid", seed_integral=True)


# valid numbers for each constructor argument, the arguments each constructor
# reads, and bad values of each
GOOD = {"a": (4.0, 4.0), "omega_f": 10.0, "b": 1.0, "dt": 1e-3, "kp": 44.0, "ki": 40.0,
        "kd": 14.0}
BUILD = {
    "generalized": lambda v: GeneralizedController(v["a"], v["omega_f"], v["b"], v["dt"]),
    "homogeneous": lambda v: HomogeneousController(v["a"], v["b"]),
    "classic": lambda v: ClassicPidController(v["kp"], v["ki"], v["kd"], v["b"], v["dt"]),
}
READS = {"generalized": ("a", "omega_f", "b", "dt"), "homogeneous": ("a", "b"),
         "classic": ("kp", "ki", "kd", "b", "dt")}
NOT_FINITE = (math.inf, -math.inf, math.nan)
BAD = {"a": [(), (math.inf, 4.0), (4.0, math.nan), (0.0, 4.0)],
       "omega_f": [0.0, -1.0, *NOT_FINITE], "b": [0.0, *NOT_FINITE],
       "dt": [0.0, -1e-3, *NOT_FINITE],
       **dict.fromkeys(("kp", "ki", "kd"), (0.0, *NOT_FINITE))}


def lanes_of(good, value):
    """Three lanes: ``good`` in the first two and ``value`` in the last, a
    tuple of gains as a tuple of ``[lanes]`` arrays."""
    if isinstance(value, tuple):
        return tuple(np.array([g, g, v]) for g, v in zip(good, value))
    return np.array([good, good, value])


@pytest.mark.parametrize("lanes", [False, True], ids=["float", "lanes"])
@pytest.mark.parametrize("kind,key,bad", [
    (kind, key, bad) for kind, keys in READS.items() for key in keys for bad in BAD[key]])
def test_a_constructor_rejects_a_bad_number(kind, key, bad, lanes):
    values = {**GOOD, key: bad}
    if lanes:
        values = {k: lanes_of(GOOD[k], v) for k, v in values.items()}
    with pytest.raises(ConfigError, match=rf"^{key}[:\[]"):
        BUILD[kind](values)
    BUILD[kind]({k: lanes_of(g, g) for k, g in GOOD.items()} if lanes else GOOD)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
measurement = st.floats(-10.0, 10.0, allow_nan=False)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def lane_streams(draw, n, max_lanes=5, max_steps=40):
    """Measurement streams: steps x lanes x n floats."""
    lanes = draw(st.integers(1, max_lanes))
    steps = draw(st.integers(1, max_steps))
    flat = draw(st.lists(measurement, min_size=steps * lanes * n, max_size=steps * lanes * n))
    return np.array(flat).reshape(steps, lanes, n)


class TestLanes:
    """Lockstep stepping of lanes against per-lane float stepping, bitwise."""

    @PROPERTY
    @given(st.sampled_from([RECTANGULAR, TRAPEZOIDAL]), st.floats(-5.0, 5.0),
           st.floats(1e-4, 0.5), lane_streams(n=1))
    def test_integrator_push(self, rule, seed, dt, stream):
        samples = stream[:, :, 0]
        lanes = Integrator(rule)
        alone = [Integrator(rule) for _ in range(samples.shape[1])]
        for integ in (lanes, *alone):
            integ.total = seed
        for row in samples:
            total = lanes.push(row.copy(), dt)
            expected = [integ.push(float(y), dt) for integ, y in zip(alone, row)]
            assert bits(np.broadcast_to(total, row.shape)) == bits(expected)

    @PROPERTY
    @given(st.data())
    def test_a_lane_controller_steps_each_lane_as_its_float_controller(self, data):
        # every number the constructor takes is drawn per lane: gains that
        # need not be equal-pole, omega_f, b and dt
        kind = data.draw(st.sampled_from(["generalized", "homogeneous", "classic"]))
        n = data.draw(st.integers(1, 2) if kind == "classic" else st.integers(1, 4))
        rule = data.draw(st.sampled_from([RECTANGULAR, TRAPEZOIDAL]))
        form = data.draw(st.sampled_from(OBSERVER_FORMS))
        seed_integral = form == "integral" and data.draw(st.booleans())
        stream = data.draw(lane_streams(n=n, max_lanes=6))
        numbers = st.tuples(st.tuples(*[st.floats(0.01, 100.0)] * max(n, 3)),
                            st.floats(0.1, 50.0), st.sampled_from([1.0, -0.5, 2.3]),
                            st.floats(1e-4, 1e-2))
        per_lane = [data.draw(numbers) for _ in range(stream.shape[1])]

        def build(gains, omega_f, b, dt):
            if kind == "homogeneous":
                return HomogeneousController(gains[:n], b)
            if kind == "classic":
                kp, ki, kd = gains[:3]
                return ClassicPidController(kp, ki, kd if n == 2 else None, b, dt, rule=rule)
            return GeneralizedController(gains[:n], omega_f, b, dt, rule=rule,
                                         observer_form=form, seed_integral=seed_integral)

        alone = [build(*lane) for lane in per_lane]
        gains, omega_f, b, dt = zip(*per_lane)
        lanes = build(tuple(np.array(g) for g in zip(*gains)), np.array(omega_f), np.array(b),
                      np.array(dt))
        for row in stream:
            u = lanes.step([row[:, i].copy() for i in range(n)])
            expected_u = [c.step([float(v) for v in z]) for c, z in zip(alone, row)]
            assert bits(u) == bits(expected_u)
            assert bits(np.broadcast_to(lanes.f_hat, u.shape)) == bits([c.f_hat for c in alone])

    @PROPERTY
    @given(st.integers(1, 2), st.sampled_from([RECTANGULAR, TRAPEZOIDAL]),
           st.sampled_from([1.0, -0.5, 2.3]), st.floats(0.2, 8.0), st.floats(0.5, 40.0),
           st.floats(1e-4, 1e-2), lane_streams(n=2, max_lanes=1, max_steps=300))
    def test_pid_observer_form_matches_classic(self, n, rule, b, omega, omega_f, dt, stream):
        config = dict(n=n, b=b, omega=omega, omega_f=omega_f, dt=dt)
        gen = generalized(**config, rule=rule, observer_form="pid")
        pid = classic(**config, rule=rule)
        for row in stream[:, 0, :n]:
            z = [float(v) for v in row]
            # the two forms group the same products differently: equal up to
            # rounding of terms of size (kp + ki + kd) * |z| / |b|
            assert gen.step(z) == pytest.approx(pid.step(z), rel=1e-9, abs=1e-9)
