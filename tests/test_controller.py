import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.controller import (
    ClassicPidController,
    ControllerConfig,
    GeneralizedController,
    HomogeneousController,
    closed_loop_tf,
    homogeneous_control,
    lockstep_controller,
    observer_tfs,
    reduce_to_pi,
    reduce_to_pid,
    synthesize_gains,
)
from lumped_pid.errors import ConfigError, DimensionMismatchError, OrderMismatchError
from lumped_pid.polylti import Polynomial, binomial_poly, dc_gain, evaluate_at
from lumped_pid.quadrature import RECTANGULAR, TRAPEZOIDAL, Integrator


def cfg(n=2, b=1.0, omega=2.0, omega_f=10.0, dt=1e-3):
    return ControllerConfig(n=n, b=b, omega=omega, omega_f=omega_f, dt=dt)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0.0] * max(len(a.coeffs), len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Polynomial(out)


class TestConfigValidation:
    def test_accepts_valid(self):
        cfg()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"b": 0.0},
            {"omega": 0.0},
            {"omega": -2.0},
            {"omega_f": 0.0},
            {"dt": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            cfg(**kwargs)


class TestSynthesizeGains:
    def test_first_order(self):
        assert synthesize_gains(1, 5.0).a == (5.0,)

    def test_second_order(self):
        assert synthesize_gains(2, 2.0).a == (4.0, 4.0)

    def test_third_order_against_binomial(self):
        # oracle: binomial_poly(2,3) = [8,12,6,1], drop the leading term
        assert synthesize_gains(3, 2.0).a == binomial_poly(2.0, 3).coeffs[:-1]
        assert synthesize_gains(3, 2.0).a == (8.0, 12.0, 6.0)

    def test_all_positive(self):
        for n in range(1, 9):
            assert all(ai > 0 for ai in synthesize_gains(n, 0.7).a)


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
                HomogeneousController(cfg(n=2)).step(z)


class TestObserverStep:
    """The integral-form observer f_hat = omega_f (z_{n-1} - int u_x dt) as
    GeneralizedController steps it."""

    def test_at_rest(self):
        gen = GeneralizedController(cfg(n=2))
        assert gen.step([0.0, 0.0]) == 0.0
        assert (gen.u_x, gen.f_hat) == (0.0, 0.0)

    @pytest.mark.parametrize("rule", [RECTANGULAR, TRAPEZOIDAL])
    def test_constant_ux_accumulation(self, rule):
        # closed form: with u_x = c and z1 = 0, f_hat(k dt) = -wf*c*k*dt;
        # a0 = omega^2 = 4 and z0 = -c/4 give u_x = c exactly
        wf, c, dt = 4.0, 0.7, 0.01
        gen = GeneralizedController(cfg(n=2, omega=2.0, omega_f=wf, dt=dt), rule=rule)
        for k in range(50):
            gen.step([-c / 4.0, 0.0])
            assert gen.u_x == c
            assert gen.f_hat == pytest.approx(-wf * c * k * dt, abs=1e-13)

    def test_first_order_lag_tracking(self):
        # closed loop on xdot = f + u with constant f: the estimate must trace
        # the lag response 1 - exp(-wf t) within discretization error.
        wf, omega, f_true, dt = 10.0, 2.0, 1.0, 1e-4
        gen = GeneralizedController(cfg(n=1, omega=omega, omega_f=wf, dt=dt))
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
        gen = GeneralizedController(cfg(n=1), seed_integral=True)
        gen.step([3.5])
        assert gen.f_hat == 0.0

    def test_rejects_bad_dt_and_rule(self):
        with pytest.raises(ConfigError):
            GeneralizedController(cfg(dt=0.0))
        with pytest.raises(ConfigError):
            GeneralizedController(cfg(), rule="simpson")


class TestControlOutput:
    """u = (u_x - f_hat) / b. On the first step of an n = 1 loop with
    omega = 4 and omega_f = 1 at z = [1], u_x = -4 and f_hat = 1."""

    def test_zero(self):
        assert GeneralizedController(cfg(n=1)).step([0.0]) == 0.0

    def test_arithmetic(self):
        assert GeneralizedController(cfg(n=1, b=2.0, omega=4.0, omega_f=1.0)).step([1.0]) == -2.5

    def test_sign_flip_through_negative_b(self):
        assert GeneralizedController(cfg(n=1, b=-2.0, omega=4.0, omega_f=1.0)).step([1.0]) == 2.5


class TestReductions:
    @pytest.mark.parametrize("omega", [2.0, 38.01493908756587])
    def test_pid_gains_are_built_on_synthesize_gains(self, omega):
        # with glibc 2.36, omega**2 (synthesize_gains) and omega * omega
        # differ by one ulp at the second omega; the PI/PID pair shares a0
        a0, a1 = synthesize_gains(2, omega).a
        g = reduce_to_pid(cfg(n=2, omega=omega, omega_f=7.0))
        assert (g.kd, g.kp, g.ki) == (a1 + 7.0, a0 + 7.0 * a1, 7.0 * a0)

    def test_pi_values(self):
        g = reduce_to_pi(cfg(n=1, omega=5.0, omega_f=20.0))
        assert (g.kp, g.ki, g.kd) == (5.0, 100.0, None)

    def test_pi_unit(self):
        g = reduce_to_pi(cfg(n=1, omega=1.0, omega_f=1.0))
        assert (g.kp, g.ki) == (1.0, 1.0)

    def test_pi_fractional(self):
        g = reduce_to_pi(cfg(n=1, omega=0.5, omega_f=4.0))
        assert (g.kp, g.ki) == (0.5, 2.0)

    def test_pid_values(self):
        g = reduce_to_pid(cfg(n=2, omega=2.0, omega_f=10.0))
        assert (g.kd, g.kp, g.ki) == (14.0, 44.0, 40.0)

    def test_pid_small_omega_f_approaches_pd(self):
        g = reduce_to_pid(cfg(n=2, omega=1.0, omega_f=1e-9))
        assert g.kd == pytest.approx(2.0, abs=1e-8)
        assert g.kp == pytest.approx(1.0, abs=1e-8)
        assert g.ki == pytest.approx(0.0, abs=1e-8)

    def test_pid_second_values(self):
        g = reduce_to_pid(cfg(n=2, omega=3.0, omega_f=6.0))
        assert (g.kd, g.kp, g.ki) == (12.0, 45.0, 54.0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            reduce_to_pi(cfg(n=2))
        with pytest.raises(OrderMismatchError):
            reduce_to_pid(cfg(n=1))


class TestClassicPidStep:
    def test_zero_history(self):
        pid = ClassicPidController(cfg(n=2, omega=2.0, omega_f=10.0))
        assert pid.step([0.0, 0.0]) == 0.0

    def test_order_beyond_two_rejected(self):
        with pytest.raises(OrderMismatchError, match="requires n in {1, 2}, got 3"):
            ClassicPidController(cfg(n=3, omega=2.0, omega_f=10.0))

    def test_measurement_count_checked(self):
        pid = ClassicPidController(cfg(n=2, omega=2.0, omega_f=10.0))
        with pytest.raises(DimensionMismatchError, match="expected 2 measurements, got 1"):
            pid.step([0.0])

    def test_constant_error_accumulation(self):
        # u(k dt) = -44 - 40*k*dt under the rectangular rule
        dt = 0.01
        pid = ClassicPidController(cfg(n=2, omega=2.0, omega_f=10.0, dt=dt))
        for k in range(40):
            u = pid.step([1.0, 0.0])
            assert u == pytest.approx(-44.0 - 40.0 * k * dt, abs=1e-12)


class TestClosedLoopTf:
    def test_first_order_denominator(self):
        tf = closed_loop_tf(cfg(n=1, omega=2.0, omega_f=10.0))
        assert tf.numerator.coeffs == (0.0, 1.0)
        assert tf.denominator.coeffs == (20.0, 12.0, 1.0)

    def test_dc_gain_zero_for_any_config(self):
        for n in (1, 2, 3):
            for omega in (0.5, 2.0, 5.0):
                assert dc_gain(closed_loop_tf(cfg(n=n, omega=omega, omega_f=7.0))) == 0.0

    def test_second_order_denominator_reproduces_pid_gains(self):
        tf = closed_loop_tf(cfg(n=2, omega=2.0, omega_f=10.0))
        assert tf.denominator.coeffs == (40.0, 44.0, 14.0, 1.0)
        g = reduce_to_pid(cfg(n=2, omega=2.0, omega_f=10.0))
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
    """The reduced generalized form must reproduce classic PI/PID arithmetic
    step for step, for any measurement sequence, under a shared rule."""

    @pytest.mark.parametrize("rule", [RECTANGULAR, TRAPEZOIDAL])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_classic_for_random_sequences(self, n, rule):
        rng = random.Random(1000 + n)
        for trial in range(6):
            config = cfg(
                n=n,
                b=rng.choice([1.0, -0.5, 2.3]),
                omega=rng.uniform(0.2, 8.0),
                omega_f=rng.uniform(0.5, 40.0),
                dt=10 ** rng.uniform(-4, -2),
            )
            gen = GeneralizedController(config, rule=rule, observer_form="pid")
            pid = ClassicPidController(config, rule=rule)
            worst = 0.0
            for _ in range(2000):
                z = [rng.uniform(-2, 2) for _ in range(n)]
                worst = max(worst, abs(gen.step(z) - pid.step(z)))
            assert worst <= 1e-9

    def test_integral_form_agrees_in_closed_loop(self):
        # Along a consistent zero-initial-condition trajectory (the reduction
        # integrates the derivative channels exactly, which assumes x(0)=0)
        # the literal-integral and reduced forms stay within quadrature error.
        config = cfg(n=2, omega=2.0, omega_f=10.0, dt=1e-4)
        gen_i = GeneralizedController(config, observer_form="integral")
        gen_p = GeneralizedController(config, observer_form="pid")
        x, v = 0.0, 0.0
        worst = 0.0
        for _ in range(5000):
            u_i = gen_i.step([x, v])
            u_p = gen_p.step([x, v])
            worst = max(worst, abs(u_i - u_p))
            a = 1.0 + u_i  # xddot = f + u, f = 1
            x += v * config.dt + 0.5 * a * config.dt**2
            v += a * config.dt
        assert worst < 0.01  # O(dt) quadrature difference, not equality


class TestGeneralizedController:
    def test_matches_primitive_composition(self):
        # the stateful stepper is the paper's formula: u_x = -sum a_i z_i,
        # f_hat = omega_f (z_{n-1} - sum of past u_x dt), u = (u_x - f_hat)/b
        config = cfg(n=3, b=1.7, omega=1.5, omega_f=6.0, dt=1e-3)
        gen = GeneralizedController(config)
        a = synthesize_gains(config.n, config.omega).a
        integral = 0.0
        rng = random.Random(5)
        for _ in range(200):
            z = [rng.uniform(-1, 1) for _ in range(3)]
            u_x = -sum(ai * zi for ai, zi in zip(a, z))
            f_hat = config.omega_f * (z[-1] - integral)
            expected = (u_x - f_hat) / config.b
            assert gen.step(z) == pytest.approx(expected, abs=1e-15)
            integral += u_x * config.dt

    def test_dimension_check(self):
        gen = GeneralizedController(cfg(n=2))
        with pytest.raises(DimensionMismatchError):
            gen.step([1.0])

    def test_seed_integral_option(self):
        config = cfg(n=2)
        gen = GeneralizedController(config, seed_integral=True)
        gen.step([0.5, 1.25])
        assert gen.f_hat == 0.0

    def test_rejects_unknown_form(self):
        with pytest.raises(ConfigError):
            GeneralizedController(cfg(), observer_form="magic")


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
    def test_controller_step(self, data):
        kind = data.draw(st.sampled_from(["integral", "pid_form", "seed_integral",
                                          "homogeneous", "classic"]))
        n = data.draw(st.integers(1, 2) if kind == "classic" else st.integers(1, 4))
        rule = data.draw(st.sampled_from([RECTANGULAR, TRAPEZOIDAL]))
        b = data.draw(st.sampled_from([1.0, -0.5, 2.3]))
        dt = data.draw(st.floats(1e-4, 1e-2))
        stream = data.draw(lane_streams(n=n))
        configs = [
            cfg(n=n, b=b, dt=dt, omega=data.draw(st.floats(0.1, 10.0)),
                omega_f=data.draw(st.floats(0.1, 50.0)))
            for _ in range(stream.shape[1])
        ]

        def build(config):
            if kind == "homogeneous":
                return HomogeneousController(config)
            if kind == "classic":
                return ClassicPidController(config, rule=rule)
            form = "pid" if kind == "pid_form" else "integral"
            return GeneralizedController(config, rule=rule, observer_form=form,
                                         seed_integral=kind == "seed_integral")

        alone = [build(c) for c in configs]
        lanes = lockstep_controller([build(c) for c in configs])
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
        config = cfg(n=n, b=b, omega=omega, omega_f=omega_f, dt=dt)
        gen = GeneralizedController(config, rule=rule, observer_form="pid")
        pid = ClassicPidController(config, rule=rule)
        for row in stream[:, 0, :n]:
            z = [float(v) for v in row]
            # the two forms group the same products differently: equal up to
            # rounding of terms of size (kp + ki + kd) * |z| / |b|
            assert gen.step(z) == pytest.approx(pid.step(z), rel=1e-9, abs=1e-9)
