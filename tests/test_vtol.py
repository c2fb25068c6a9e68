import hashlib
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lumped_pid.cli import main
from lumped_pid.config import build_scenario, load_config
from lumped_pid.errors import (
    AttitudeSingularityError,
    ConfigError,
    DegenerateThrustError,
    GimbalDegenerateError,
)
from lumped_pid.plants.vtol import (
    CircleRef,
    VtolController,
    HoverRef,
    LissajousRef,
    _inertia,
    advance_rigid_body,
    attitude_error,
    desired_attitude,
)
from lumped_pid.signals import Constant, Sinusoid, Step, sample_triple
from lumped_pid.sim import Scenario, run_scenario
from lumped_pid import so3
from rigid_body_reference import (body_accel, gram_schmidt3, mat_mul, reference_step,
                                  rodrigues3, rodrigues_e3, thrust_accel)


def params(m=1.0, g=9.81, J=(0.02, 0.02, 0.04)):
    """The rigid body's mass, gravity and flat 9-tuple inertia."""
    return SimpleNamespace(mass=m, gravity=g, inertia=_inertia(np.diag(J), "plant.inertia"))


def hover_controller(m, g, J, position=(0.0, 0.0, 0.0), psi=0.0):
    return VtolController(m, g, J, HoverRef(position, psi=psi), dt=1e-3,
                          omega_pos=2.0, omega_f=8.0, omega_att=10.0, omega_tau=20.0)


def accel(par, f, w=(0.0, 0.0, 0.0), R9=so3.IDENTITY9, t=0.0, d_f=None, d_tau=None):
    """(v_dot, omega_dot) of ``par`` with zero control torque, under the
    disturbance triples of signals ``d_f`` and ``d_tau`` (None: zero)."""
    J9 = par.inertia
    zero = (0.0, 0.0, 0.0)
    d_f = sample_triple(d_f, t) if d_f else zero
    d_tau = sample_triple(d_tau, t) if d_tau else zero
    return (thrust_accel((R9[2], R9[5], R9[8]), f, 1.0 / par.mass, par.gravity, d_f),
            body_accel(w, zero, J9, so3.inv3(J9), d_tau))


def mat(m9):
    return np.reshape(m9, (3, 3))


def flat9(m):
    """A 3x3 matrix as the flat row-major 9-tuple of floats the so3 helpers take."""
    return tuple(np.ravel(m).tolist())


def hat3(v):
    """(x1,x2,x3) -> [[0,-x3,x2],[x3,0,-x1],[-x2,x1,0]]; hat(v) w = v x w."""
    return (0.0, -v[2], v[1], v[2], 0.0, -v[0], -v[1], v[0], 0.0)


class TestHatVee:
    def test_hat_zero(self):
        assert hat3((0.0, 0.0, 0.0)) == (0.0,) * 9

    def test_hat_display(self):
        expected = (0.0, -3.0, 2.0, 3.0, 0.0, -1.0, -2.0, 1.0, 0.0)
        assert hat3((1.0, 2.0, 3.0)) == expected

    def test_hat_is_cross_product(self):
        rng = random.Random(3)
        for _ in range(20):
            v = tuple(rng.uniform(-2, 2) for _ in range(3))
            w = tuple(rng.uniform(-2, 2) for _ in range(3))
            assert np.allclose(mat(hat3(v)) @ w, np.cross(v, w), atol=1e-15)

    def test_vee_inverts_hat(self):
        # attitude_error reads vee of a flat skew matrix M as (M[7], M[2], M[3])
        rng = random.Random(11)
        for _ in range(100):
            v = tuple(rng.uniform(-5, 5) for _ in range(3))
            m = hat3(v)
            assert (m[7], m[2], m[3]) == v


class TestRodrigues:
    def test_matches_matrix_exponential(self):
        rng = random.Random(8)
        for _ in range(20):
            r = tuple(rng.uniform(-2, 2) for _ in range(3))
            assert np.allclose(mat(rodrigues3(r)), expm(mat(hat3(r))), atol=1e-12)

    def test_small_angle_series(self):
        r = (1e-9, -2e-9, 5e-10)
        assert np.allclose(mat(rodrigues3(r)), expm(mat(hat3(r))), atol=1e-15)

    def test_e3_column_is_bitwise_third_column(self):
        rng = random.Random(5)
        for scale in (2.0, 1e-3, 1e-7):
            for _ in range(50):
                r = tuple(rng.uniform(-scale, scale) for _ in range(3))
                assert rodrigues_e3(r) == rodrigues3(r)[2::3]

    def test_orthonormalize_repairs_drift(self):
        R = mat(rodrigues3((0.3, -0.1, 0.7))) + 1e-6 * np.ones((3, 3))
        fixed = mat(gram_schmidt3(flat9(R)))
        assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) < 1e-14
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-14)


class TestVtolDerivative:
    def test_hover_equilibrium(self):
        p = params()
        w = (0.0, 0.0, 0.0)
        v_dot, w_dot = accel(p, p.mass * p.gravity, w)
        r_dot = mat_mul(so3.IDENTITY9, hat3(w))  # R_dot = R hat(omega)
        for arr in (v_dot, w_dot):  # p_dot = v = 0 at rest
            assert np.linalg.norm(arr) < 1e-12
        assert np.linalg.norm(r_dot) < 1e-12

    def test_free_fall(self):
        p = params()
        v_dot, _ = accel(p, 0.0)
        assert np.allclose(v_dot, [0.0, 0.0, p.gravity])

    def test_principal_axis_spin_has_zero_angular_acceleration(self):
        p = params()
        _, w_dot = accel(p, 0.0, w=(0.0, 0.0, 3.0))  # aligned with a principal axis
        assert np.linalg.norm(w_dot) < 1e-14

    def test_disturbance_enters_translation(self):
        p = params()
        v_dot, _ = accel(p, p.mass * p.gravity, d_f=(Constant(0.5), Constant(0.0), Constant(0.0)))
        assert v_dot[0] == pytest.approx(0.5)

    def test_torque_disturbance_enters_rotation(self):
        p = params()
        _, w_dot = accel(p, 0.0, d_tau=(Constant(0.01), Constant(-0.02), Constant(0.03)))
        assert w_dot == pytest.approx((0.5, -1.0, 0.75), rel=1e-12)

    def test_body_accel_matches_euler_equation(self):
        # J omega_dot = tau - omega x (J omega) + d_tau, solved by numpy for a full inertia
        J9 = _inertia("0.02,0.001,-0.002,0.001,0.025,0.003,-0.002,0.003,0.04", "plant.inertia")
        J = mat(J9)
        rng = random.Random(23)
        for _ in range(50):
            w, tau, d_tau = (tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(3))
            expected = np.linalg.solve(J, np.add(tau, d_tau) - np.cross(w, J @ w))
            got = body_accel(w, tau, J9, so3.inv3(J9), d_tau)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_inertia_validation(self):
        with pytest.raises(ConfigError):
            hover_controller(1.0, 9.81, np.diag([1.0, -1.0, 1.0]))
        # a controller built in code checks its inertia with the plant.inertia parser
        with pytest.raises(ConfigError,
                           match=r"^plant.inertia: expected 3 \(diagonal\) or 9 values$"):
            hover_controller(1.0, 9.81, np.eye(2))
        with pytest.raises(ConfigError, match="^plant.mass: must be positive, got 0.0"):
            vtol_scenario(plant={"mass": 0.0})


class TestAttitudeError:
    def test_zero_error_rotation(self):
        R9 = rodrigues3((0.2, 0.1, -0.3))
        omega = (0.4, -0.2, 0.1)
        g_t, g_dot, G = attitude_error(R9, R9, omega, (0.0, 0.0, 0.0))
        assert np.allclose(g_t, 0.0, atol=1e-15)
        assert np.allclose(mat(G), 0.5 * np.eye(3), atol=1e-15)
        assert np.allclose(g_dot, 0.5 * np.array(omega), atol=1e-15)

    def test_small_yaw_gives_half_angle_tangent(self):
        # oracle: direct construction at phi = 0.02
        phi = 0.02
        R9 = rodrigues3((0.0, 0.0, phi))
        g_t, _, _ = attitude_error(R9, so3.IDENTITY9, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert g_t[2] == pytest.approx(math.tan(phi / 2), rel=1e-12)
        assert abs(g_t[0]) < 1e-15 and abs(g_t[1]) < 1e-15

    def test_rate_matches_finite_difference(self):
        # g~(t) from R(t) = R0 expm(hat(w) t) against g~_dot = G w~
        R0 = rodrigues3((0.3, -0.2, 0.4))
        omega = (0.7, 0.3, -0.5)
        Rd9 = rodrigues3((0.1, 0.0, -0.2))
        zero = (0.0, 0.0, 0.0)
        h = 1e-5
        for t in (0.0, 0.3, 0.9):
            R_t = mat_mul(R0, rodrigues3(tuple(t * x for x in omega)))
            R_h = mat_mul(R0, rodrigues3(tuple((t + h) * x for x in omega)))
            g_t, g_dot, _ = attitude_error(R_t, Rd9, omega, zero)
            g_h, _, _ = attitude_error(R_h, Rd9, omega, zero)
            fd = (np.array(g_h) - np.array(g_t)) / h
            scale = np.linalg.norm(g_dot)
            assert np.linalg.norm(fd - np.array(g_dot)) / scale < 1e-3

    def test_singularity_detected(self):
        R9 = rodrigues3((math.pi, 0.0, 0.0))  # tr(R~) = -1
        with pytest.raises(AttitudeSingularityError):
            attitude_error(R9, so3.IDENTITY9, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


class TestDesiredAttitude:
    def test_hover_alignment(self):
        F_d = (0.0, 0.0, 9.81)
        R_d = mat(desired_attitude(F_d, 0.0))
        assert np.linalg.norm(R_d.T @ R_d - np.eye(3)) < 1e-12
        assert np.allclose(R_d @ np.array([0, 0, 1.0]), np.array(F_d) / 9.81, atol=1e-12)
        assert np.allclose(R_d, np.eye(3), atol=1e-12)
        # the thrust is F_d projected on the current thrust axis R e3, here e3
        assert np.dot(so3.IDENTITY9[2::3], F_d) == pytest.approx(9.81)

    def test_columns_orthonormal_for_random_inputs(self):
        rng = random.Random(17)
        for _ in range(50):
            F_d = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(2, 12))
            psi = rng.uniform(-math.pi, math.pi)
            R_d = mat(desired_attitude(F_d, psi))
            assert np.linalg.norm(R_d.T @ R_d - np.eye(3)) < 1e-12
            assert np.linalg.det(R_d) == pytest.approx(1.0, abs=1e-12)

    def test_thrust_is_norm_when_aligned(self):
        F_d = (1.0, -2.0, 9.0)
        Rd9 = desired_attitude(F_d, 0.3)
        f = np.dot(Rd9[2::3], F_d)  # thrust through the attitude R = R_d
        assert f == pytest.approx(np.linalg.norm(F_d), rel=1e-12)

    def test_degenerate_thrust(self):
        with pytest.raises(DegenerateThrustError):
            desired_attitude((0.0, 0.0, 0.0), 0.0)

    def test_gimbal_degenerate(self):
        with pytest.raises(GimbalDegenerateError):
            desired_attitude((5.0, 0.0, 0.0), 0.0)


# a disturbance part's values at the three stage times of a step: none
NO_DISTURBANCE = ((0.0, 0.0, 0.0),) * 3


class TestRigidBodyIntegration:
    def test_pure_spin_matches_exact_rotation(self):
        m, g = 1.0, 0.0  # gravity off; thrust zero
        J9 = params().inertia
        Jinv9 = so3.inv3(J9)
        w = (0.0, 0.0, 2.0)
        p, v, R9 = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9
        dt = 1e-3
        for k in range(1000):
            p, v, R9, w = advance_rigid_body(p, v, R9, w, 0.0, (0.0, 0.0, 0.0), dt, m, g,
                                             J9, Jinv9, NO_DISTURBANCE, NO_DISTURBANCE)
        exact = expm(mat(hat3((0.0, 0.0, 2.0 * 1.0))))
        got = mat(R9)
        assert np.allclose(got, exact, atol=1e-9)
        assert so3.ortho_error3(R9) < 1e-12

    def test_free_fall_kinematics(self):
        m, g = 2.0, 9.81
        J9 = params().inertia
        Jinv9 = so3.inv3(J9)
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9, (0.0, 0.0, 0.0)
        dt = 1e-2
        for k in range(100):
            p, v, R9, w = advance_rigid_body(p, v, R9, w, 0.0, (0.0, 0.0, 0.0), dt, m, g,
                                             J9, Jinv9, NO_DISTURBANCE, NO_DISTURBANCE)
        assert v[2] == pytest.approx(9.81, rel=1e-12)
        assert p[2] == pytest.approx(0.5 * 9.81, rel=1e-12)

    def test_torque_free_drift_is_second_order_in_attitude(self):
        # torque-free tumbling of a full inertia for 2 s: the world angular
        # momentum R J w drifts as dt^2 (the attitude update), so 4x less per
        # halving of dt, while the energy w^T J w / 2 (w by RK4) barely moves
        J = np.array([[0.03, 0.004, -0.002], [0.004, 0.025, 0.003], [-0.002, 0.003, 0.04]])
        J9 = _inertia(J, "plant.inertia")
        Jinv9 = so3.inv3(J9)
        zero = (0.0, 0.0, 0.0)
        w0 = np.array([3.0, -2.0, 5.0])
        L0, E0 = J @ w0, 0.5 * w0 @ J @ w0
        drifts = []
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            p, v, R9, w = zero, zero, so3.IDENTITY9, tuple(w0)
            for _ in range(round(2.0 / dt)):
                p, v, R9, w = advance_rigid_body(p, v, R9, w, 0.0, zero, dt, 1.0, 0.0,
                                                 J9, Jinv9, NO_DISTURBANCE, NO_DISTURBANCE)
                assert so3.ortho_error3(R9) <= 1e-14
            L = mat(R9) @ J @ np.array(w)
            drifts.append(np.linalg.norm(L - L0) / np.linalg.norm(L0))
            assert abs(0.5 * np.array(w) @ J @ np.array(w) - E0) / E0 < 1e-9
        for coarse, fine in zip(drifts, drifts[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_a_constant_disturbance_moves_v_and_w_by_its_impulse(self):
        # one step from a tumbling, thrusting state, with a constant force
        # and then a constant torque disturbance, against the same step
        # without: v moves by d_f dt / m (v is linear in d_f), w by
        # J^-1 d_tau dt to O(dt^2) (the gyroscopic term couples them)
        J = np.array([[0.03, 0.004, -0.002], [0.004, 0.025, 0.003], [-0.002, 0.003, 0.04]])
        J9 = _inertia(J, "plant.inertia")
        Jinv9 = so3.inv3(J9)
        R9 = flat9(expm(mat(hat3((0.3, -0.2, 0.5)))))
        state = ((1.0, -2.0, 0.5), (0.3, 0.1, -0.2), R9, (3.0, -2.0, 5.0), 14.0,
                 (0.01, -0.02, 0.005))
        m, g = 1.5, 9.81
        d_f, d_tau = (0.7, -0.4, 1.1), (0.05, 0.03, -0.02)
        residuals = []
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            args = (dt, m, g, J9, Jinv9)
            base = advance_rigid_body(*state, *args, NO_DISTURBANCE, NO_DISTURBANCE)
            pushed = advance_rigid_body(*state, *args, (d_f,) * 3, NO_DISTURBANCE)
            twisted = advance_rigid_body(*state, *args, NO_DISTURBANCE, (d_tau,) * 3)
            dv = np.subtract(pushed[1], base[1]) - np.array(d_f) * dt / m
            assert np.linalg.norm(dv) <= 1e-15
            assert (pushed[2], pushed[3]) == (base[2], base[3])  # no torque from a force
            dw = np.subtract(twisted[3], base[3]) - mat(Jinv9) @ np.array(d_tau) * dt
            residuals.append(np.linalg.norm(dw))
            assert residuals[-1] <= 2.5 * dt**2
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_the_attitude_stays_orthonormal_over_random_steps(self):
        # 10**4 steps of random thrust, torque, disturbances and step size
        # from a random full inertia: the Gram-Schmidt cleanup keeps R a
        # rotation to round-off, with no drift
        rng = random.Random(7)
        vector = lambda scale: tuple(rng.uniform(-scale, scale) for _ in range(3))
        J = np.diag([0.02, 0.03, 0.05]) + 0.004 * np.ones((3, 3))
        J9 = _inertia(J, "plant.inertia")
        Jinv9 = so3.inv3(J9)
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), flat9(expm(mat(hat3((1.0, 2.0, -0.5))))), \
            (4.0, -1.0, 2.0)
        worst = 0.0
        for _ in range(10**4):
            p, v, R9, w = advance_rigid_body(
                p, v, R9, w, rng.uniform(0.0, 30.0), vector(0.05), rng.uniform(1e-4, 1e-2),
                1.0, 9.81, J9, Jinv9, (vector(1.0),) * 3, (vector(0.05),) * 3)
            worst = max(worst, so3.ortho_error3(R9), abs(so3.det3(R9) - 1.0))
        assert worst <= 1e-14
        assert all(map(math.isfinite, R9 + w))  # a nan would hide in max()


def triples(draw, scale):
    """None, or three constant, step or sinusoid signals of one kind, one
    per component."""
    kind = draw(st.sampled_from(["none", "constant", "step", "sinusoid"]))
    values = draw(st.tuples(*[st.floats(-scale, scale)] * 3))
    if kind == "none":
        return None
    if kind == "constant":
        return tuple(Constant(c) for c in values)
    if kind == "step":
        t_start = draw(st.floats(0.0, 2.0))
        return tuple(Step(c, t_start) for c in values)
    freq, phase = draw(st.floats(0.0, 50.0)), draw(st.floats(-4.0, 4.0))
    return tuple(Sinusoid(c, freq, phase) for c in values)


def sampler(signals):
    """t -> the values of a disturbance part, as a run samples it: zero when
    absent, and an all-Constant part's value at t = 0 whatever t."""
    if not signals:
        return lambda t: (0.0, 0.0, 0.0)
    if all(isinstance(s, Constant) for s in signals):
        value = sample_triple(signals, 0.0)
        return lambda t: value
    return lambda t: sample_triple(signals, t)


@st.composite
def rigid_body_steps(draw):
    """A full inertia, force and torque disturbances, a state, a thrust, a
    torque and a step: every argument of one reference step, which samples
    its disturbances at t itself."""
    vectors = lambda bound: st.tuples(*[st.floats(-bound, bound)] * 3)
    # J = Q diag(eigenvalues) Q^T for a rotation Q, symmetrized
    Q = mat(rodrigues3(draw(vectors(4.0))))
    J = Q @ np.diag(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3))) @ Q.T
    J9 = _inertia(0.5 * (J + J.T), "plant.inertia")
    # rates of every size, so that the exponentials' angles fall on both
    # sides of their series threshold
    scale = draw(st.sampled_from([1e-4, 0.1, 30.0]))
    w = tuple(scale * c for c in draw(vectors(1.0)))
    return (draw(vectors(100.0)), draw(vectors(100.0)), rodrigues3(draw(vectors(4.0))), w,
            draw(st.floats(-50.0, 50.0)), draw(vectors(1.0)),
            draw(st.floats(0.0, 10.0)), draw(st.floats(1e-5, 0.1)), draw(st.floats(0.05, 10.0)),
            draw(st.floats(0.0, 20.0)), J9, so3.inv3(J9),
            sampler(triples(draw, 5.0)), sampler(triples(draw, 0.1)))


class TestStraightLineStep:
    @settings(max_examples=300, deadline=None)
    @given(rigid_body_steps())
    def test_step_is_the_rk4_of_its_reference_helpers(self, args):
        # the step takes the values at t, t + dt/2 and t + dt that the
        # reference samples
        *state, t, dt, mass, g, J9, Jinv9, d_f, d_tau = args
        stages = lambda sample: (sample(t), sample(t + 0.5 * dt), sample(t + dt))
        step = advance_rigid_body(*state, dt, mass, g, J9, Jinv9, stages(d_f), stages(d_tau))
        assert bits(step) == bits(reference_step(*args))


class TestVtolController:
    def test_perfect_hover_outputs_weight_and_zero_torque(self):
        p = params()
        ctrl = hover_controller(p.mass, p.gravity, p.inertia)
        f, tau = ctrl.compute(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9,
                              (0.0, 0.0, 0.0))
        assert f == pytest.approx(p.mass * p.gravity, rel=1e-15)
        assert all(abs(x) < 1e-15 for x in tau)

    def test_rejects_bad_bandwidths(self):
        for name in ("omega", "omega_f", "omega_att", "omega_tau"):
            with pytest.raises(ConfigError, match=f"^controller.{name}: must be positive"):
                vtol_scenario(controller={name: 0.0})

    # a controller built in code checks its bandwidths and step as the config does
    @pytest.mark.parametrize("name,value,message", [
        ("omega_f", -8.0, "must be positive, got -8.0"),
        ("omega_tau", math.nan, "expected a finite number, got nan"),
        ("dt", 0.0, "must be positive, got 0.0"),  # compute divided by it on its second step
    ])
    def test_constructor_rejects_a_bad_argument(self, name, value, message):
        p = params()
        args = dict(dt=1e-3, omega_pos=2.0, omega_f=8.0, omega_att=10.0, omega_tau=20.0)
        with pytest.raises(ConfigError, match=f"^{name}: {message}$"):
            VtolController(p.mass, p.gravity, p.inertia, HoverRef((0.0, 0.0, 0.0)),
                           **{**args, name: value})


def vtol_scenario(**overrides):
    base = dict(
        plant_kind="vtol",
        plant={"mass": 1.0, "gravity": 9.81, "inertia": (0.02, 0.02, 0.04),
               "reference": {"kind": "hover", "position": (0.0, 0.0, 0.0)}},
        controller={"omega": 2.0, "omega_f": 8.0, "omega_att": 10.0, "omega_tau": 20.0},
        disturbance={},
        dt=1e-3,
        duration=2.0,
        seed=0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestVtolScenario:
    def test_hover_stays_put(self):
        trace = run_scenario(vtol_scenario(duration=1.0))
        assert np.max(trace["err_norm"]) < 1e-9
        assert np.max(trace["ortho_err"]) < 1e-9

    def test_wind_rejection_short(self):
        scenario = vtol_scenario(
            disturbance={"force": (Constant(0.5), Constant(0.0), Constant(0.0))},
            duration=8.0,
        )
        trace = run_scenario(scenario)
        peak = np.max(trace["err_norm"])
        tail = trace["err_norm"][trace.t >= 6.0]
        assert peak > 1e-4  # the wind actually pushed it off
        assert np.max(tail) < 0.01 * peak
        # observer converges to d_f / m
        assert trace["dfhx"][-1] == pytest.approx(0.5, abs=0.01)
        assert np.max(trace["ortho_err"]) <= 1e-9

    def test_circle_tracking_error_shrinks_with_bandwidth(self):
        errors = []
        for omega in (2.0, 4.0):
            scenario = vtol_scenario(
                plant={"mass": 1.0, "gravity": 9.81, "inertia": (0.02, 0.02, 0.04),
                       "reference": {"kind": "circle", "radius": 1.0, "omega": 1.0,
                                     "height": 0.0}},
                controller={"omega": omega, "omega_f": 4.0 * omega,
                            "omega_att": 5.0 * omega, "omega_tau": 10.0 * omega},
                duration=10.0,
            )
            trace = run_scenario(scenario)
            errors.append(np.max(trace["err_norm"][trace.t >= 6.0]))
        assert errors[1] < errors[0]


REAL = st.floats(-1e3, 1e3)
TRIPLE = st.tuples(REAL, REAL, REAL)


def bits(parts):
    """Tuples of floats, such as a (position, velocity) pair, as the hex of
    each float, -0.0 apart from 0.0."""
    return [float.hex(v) for part in parts for v in part]


class TestReferences:
    """Each reference's ``at(t)`` is its closed-form position and velocity, bit for bit."""

    PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

    @PROPERTY
    @given(st.floats(0.0, 1e4), TRIPLE, REAL)
    def test_hover(self, t, p, psi):
        assert bits(HoverRef(p, psi).at(t)) == bits((p, (0.0, 0.0, 0.0)))

    @PROPERTY
    @given(st.floats(0.0, 1e4), REAL, REAL, REAL)
    def test_circle(self, t, radius, omega, height):
        r, w = radius, omega
        expected = ((r * math.cos(w * t), r * math.sin(w * t), height),
                    (-(r * w) * math.sin(w * t), (r * w) * math.cos(w * t), 0.0))
        assert bits(CircleRef(radius, omega, height).at(t)) == bits(expected)

    @PROPERTY
    @given(st.floats(0.0, 1e4), TRIPLE, TRIPLE, TRIPLE, REAL)
    def test_lissajous(self, t, a, f, phase, height):
        x, y, z = (a[i] * math.sin(f[i] * t + phase[i]) for i in range(3))
        expected = ((x, y, height + z),
                    tuple(a[i] * f[i] * math.cos(f[i] * t + phase[i]) for i in range(3)))
        assert bits(LissajousRef(a, f, phase, height).at(t)) == bits(expected)


class TestNativeFloats:
    @pytest.mark.parametrize("value", [
        "0.02,0.001,0,0.001,0.025,0,0,0,0.04",
        ((0.02, 0.001, 0.0), (0.001, 0.025, 0.0), (0.0, 0.0, 0.04)),
        np.array([[0.02, 0.001, 0.0], [0.001, 0.025, 0.0], [0.0, 0.0, 0.04]]),
        np.array([0.02, 0.025, 0.04]),
    ], ids=["text", "rows", "matrix", "diagonal_array"])
    def test_inertia_parser_returns_floats(self, value):
        flat = _inertia(value, "plant.inertia")
        assert len(flat) == 9
        assert all(type(x) is float for x in flat)
        assert flat[4] == 0.025

    def test_closed_loop_state_stays_on_floats(self):
        J = np.array([[0.02, 0.001, -0.002], [0.001, 0.025, 0.0015], [-0.002, 0.0015, 0.04]])
        ctrl = hover_controller(1.2, 9.81, J, (0.1, -0.2, 0.3), psi=0.2)
        J9 = ctrl.inertia
        Jinv9 = so3.inv3(J9)
        wind = ((0.5, -0.1, 0.0),) * 3
        spin = ((0.001, 0.0, -0.002),) * 3
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9, (0.3, -0.2, 0.1)
        for k in range(5):
            f, tau = ctrl.compute(k * 1e-3, p, v, R9, w)
            p, v, R9, w = advance_rigid_body(p, v, R9, w, f, tau, 1e-3, ctrl.mass,
                                             ctrl.gravity, J9, Jinv9, wind, spin)
        for name, values in (("f", (f,)), ("tau", tau), ("p", p), ("v", v), ("R9", R9),
                             ("w", w)):
            assert all(type(x) is float for x in values), name


VTOL_BASE_CONF = """
plant.kind = vtol
plant.mass = 1.0
plant.gravity = 9.81
controller.omega = 2.0
controller.omega_f = 8.0
controller.omega_att = 10.0
controller.omega_tau = 20.0
sim.dt = 0.001
sim.duration = 2.0
sim.seed = 0
"""

# SHA-256 of trace.csv, recorded before the rigid-body loop moved to native
# floats; every VTOL speed-up must keep these bytes. The noisy lissajous one
# was re-recorded when noise came to be drawn by numpy's standard_normal.
TRACE_DIGESTS = {
    "hover_constant_wind": (
        """
plant.inertia = 0.02,0.02,0.04
reference.kind = hover
reference.position = 0,0,0
disturbance.force.kind = constant
disturbance.force.value = 0.5,0,0
disturbance.torque.kind = constant
disturbance.torque.value = 0.001,0,-0.0005
""",
        "09ef20a2b921396e354c93f70f704bb52b3299ec5d023a4a63af6c60314d7a43",
    ),
    "sinusoid_force_and_torque": (
        """
plant.inertia = 0.02,0.02,0.04
reference.kind = hover
reference.position = 0,0,1
disturbance.force.kind = sinusoid
disturbance.force.amplitude = 0.3,-0.2,0.1
disturbance.force.freq = 2.0
disturbance.force.phase = 0.5
disturbance.torque.kind = sinusoid
disturbance.torque.amplitude = 0.002,0.001,-0.001
disturbance.torque.freq = 3.0
""",
        "ff6c90ed13cf4f5c52c473ca694ec6c6b034b4e075e2fce5304f4245f1ec2ef4",
    ),
    "lissajous_with_noise": (
        """
plant.inertia = 0.02,0.02,0.04
reference.kind = lissajous
reference.amplitude = 1.0,0.5,0.2
reference.freq = 1.0,2.0,0.5
reference.phase = 0,0.3,0
reference.height = 1.0
noise.sigma = 0.001,0.001,0.001,0.002,0.002,0.002,0.0005,0.0005,0.0005
""",
        "824d83203dfbf94b477b26e812992fb759af371cfb6ff9ad3d5fd6a0160de5e3",
    ),
    "non_diagonal_inertia": (
        """
plant.inertia = 0.02,0.001,-0.002,0.001,0.025,0.0015,-0.002,0.0015,0.04
plant.p0 = 0.2,-0.1,0.1
plant.v0 = 0,0.5,0
reference.kind = circle
reference.radius = 1.0
reference.omega = 1.0
reference.psi = 0.3
disturbance.torque.kind = step
disturbance.torque.value = 0.001,-0.002,0.0005
disturbance.torque.t_start = 0.5
""",
        "de5687c98257ae74b93a57d5edde2e352a13f2ee3e9d93e18cde940899c43bc5",
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_DIGESTS))
def test_trace_bytes_match_recorded_digest(tmp_path, capsys, case):
    text, digest = TRACE_DIGESTS[case]
    conf = tmp_path / "vtol.conf"
    conf.write_text(VTOL_BASE_CONF + text)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "run" / "trace.csv").read_bytes()).hexdigest() == digest


def test_a_step_makes_9_5_python_calls():
    # Python-level calls of the stock run, profiled at two lengths so that
    # set-up and output cancel: 9 a step and 5 a recorded row, one row in
    # ten steps. The step made 30.5 before advance_rigid_body was written as
    # straight-line code. The first run's imports stay out of the count
    def calls(duration):
        flat = load_config(Path(__file__).resolve().parent.parent / "configs" / "vtol_wind.conf")
        flat["sim.duration"] = str(duration)
        scenario = build_scenario(flat)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            run_scenario(scenario)
        finally:
            sys.setprofile(outer)
        return count

    calls(0.05)
    assert calls(0.1) - calls(0.05) == 9 * 50 + 5 * 5


def test_an_all_constant_disturbance_is_sampled_once_a_run():
    times = []

    class Counted(Constant):
        def __call__(self, t):
            times.append(t)
            return self.value

    run_scenario(vtol_scenario(
        disturbance={"force": (Counted(0.5), Counted(0.0), Counted(0.0)),
                     "torque": (Counted(0.001), Counted(0.0), Counted(-0.0005))},
        duration=0.05))
    assert times == [0.0] * 6
