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
from scipy.spatial.transform import Rotation

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


def params(m=1.0, g=9.81, J=(0.02, 0.02, 0.04)):
    """The rigid body's mass, gravity and flat 9-tuple inertia."""
    return SimpleNamespace(mass=m, gravity=g, inertia=_inertia(np.diag(J), "plant.inertia"))


def hover_controller(m, g, J, position=(0.0, 0.0, 0.0), psi=0.0):
    return VtolController(m, g, J, HoverRef(position, psi=psi), dt=1e-3,
                          omega_pos=2.0, omega_f=8.0, omega_att=10.0, omega_tau=20.0)


def mat(m9):
    return np.reshape(m9, (3, 3))


def flat9(m):
    """A 3x3 matrix as the flat row-major 9-tuple of floats the so3 helpers take."""
    return tuple(np.ravel(m).tolist())


def hat(x):
    """The matrix of y -> x cross y: its row j is e_j cross x."""
    return np.cross(np.eye(3), x)


def rotation(r):
    """exp(hat(r)), the rotation by |r| about r, as a flat 9-tuple."""
    return flat9(expm(hat(r)))


class TestAttitudeError:
    def test_zero_error_rotation(self):
        R9 = rotation((0.2, 0.1, -0.3))
        omega = (0.4, -0.2, 0.1)
        g_t, g_dot, G = attitude_error(R9, R9, omega, (0.0, 0.0, 0.0))
        assert np.allclose(g_t, 0.0, atol=1e-15)
        assert np.allclose(mat(G), 0.5 * np.eye(3), atol=1e-15)
        assert np.allclose(g_dot, 0.5 * np.array(omega), atol=1e-15)

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["roll", "pitch", "yaw"])
    def test_a_small_turn_gives_the_half_angle_tangent_on_its_axis(self, axis):
        # a turn by phi about e_axis reads tan(phi/2) on that axis and 0 on
        # the others: g~ is vee(R~ - R~^T) / (tr R~ + 1), vee undoing hat
        phi = 0.02
        R9 = rotation(phi * np.eye(3)[axis])
        g_t, _, _ = attitude_error(R9, so3.IDENTITY9, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert g_t[axis] == pytest.approx(math.tan(phi / 2), rel=1e-12)
        assert all(abs(g_t[i]) < 1e-15 for i in range(3) if i != axis)

    def test_rate_matches_finite_difference(self):
        # g~(t) from R(t) = R0 expm(hat(w) t) against g~_dot = G w~
        R0 = expm(hat((0.3, -0.2, 0.4)))
        omega = (0.7, 0.3, -0.5)
        Rd9 = rotation((0.1, 0.0, -0.2))
        zero = (0.0, 0.0, 0.0)
        h = 1e-5
        for t in (0.0, 0.3, 0.9):
            R_t = flat9(R0 @ expm(hat(np.multiply(t, omega))))
            R_h = flat9(R0 @ expm(hat(np.multiply(t + h, omega))))
            g_t, g_dot, _ = attitude_error(R_t, Rd9, omega, zero)
            g_h, _, _ = attitude_error(R_h, Rd9, omega, zero)
            fd = (np.array(g_h) - np.array(g_t)) / h
            scale = np.linalg.norm(g_dot)
            assert np.linalg.norm(fd - np.array(g_dot)) / scale < 1e-3

    def test_singularity_detected(self):
        R9 = rotation((math.pi, 0.0, 0.0))  # tr(R~) = -1
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
        exact = expm(hat((0.0, 0.0, 2.0 * 1.0)))
        got = mat(R9)
        assert np.allclose(got, exact, atol=1e-9)
        assert so3.ortho_error3(R9) < 1e-12

    # the turn |w dt| of a step, on both sides of the exponentials' 1e-6 rad
    # series threshold (the midpoint turns by half of it), and up to the 1 rad
    # of the reference's domain
    @pytest.mark.parametrize("turn", [1e-7, 5e-7, 1e-6, 2e-6, 1e-3, 0.1, 1.0])
    def test_a_step_of_principal_axis_spin_is_the_exact_rotation(self, turn):
        # spin about a principal axis has omega x J omega = 0: omega stays
        # put and R turns by exactly exp(hat(w dt))
        J9 = params().inertia
        R0 = expm(hat((0.3, -0.2, 0.5)))
        dt = 1e-3
        for axis in np.eye(3):
            w = tuple((turn / dt * axis).tolist())
            _, _, R9, w_new = advance_rigid_body((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), flat9(R0), w,
                                                 0.0, (0.0, 0.0, 0.0), dt, 1.0, 0.0, J9,
                                                 so3.inv3(J9), NO_DISTURBANCE, NO_DISTURBANCE)
            assert w_new == w
            assert np.max(np.abs(mat(R9) - R0 @ expm(hat(np.multiply(dt, w))))) <= 1e-15

    @pytest.mark.parametrize("turn", [1e-7, 1e-3, 0.5])
    def test_spin_about_a_principal_axis_of_a_full_inertia_keeps_its_rate(self, turn):
        # the eigenvectors of a full J: omega x J omega = 0 there too, while
        # J and its inverse mix every component of omega
        J = np.array([[0.03, 0.004, -0.002], [0.004, 0.025, 0.003], [-0.002, 0.003, 0.04]])
        J9 = _inertia(J, "plant.inertia")
        R0 = expm(hat((0.3, -0.2, 0.5)))
        dt = 1e-3
        for axis in np.linalg.eigh(J)[1].T:
            w = tuple((turn / dt * axis).tolist())
            _, _, R9, w_new = advance_rigid_body((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), flat9(R0), w,
                                                 0.0, (0.0, 0.0, 0.0), dt, 1.0, 0.0, J9,
                                                 so3.inv3(J9), NO_DISTURBANCE, NO_DISTURBANCE)
            assert np.linalg.norm(np.subtract(w_new, w)) <= 1e-15 * np.linalg.norm(w)
            assert np.max(np.abs(mat(R9) - R0 @ expm(hat(np.multiply(dt, w))))) <= 1e-15

    def test_hover_is_a_fixed_point_of_the_step(self):
        # at rest, level at any yaw, with thrust m g and no torque: the step
        # leaves the state where it is
        J = np.array([[0.03, 0.004, -0.002], [0.004, 0.025, 0.003], [-0.002, 0.003, 0.04]])
        J9 = _inertia(J, "plant.inertia")
        zero = (0.0, 0.0, 0.0)
        for yaw in (0.0, 0.7, -2.5):
            c, s = math.cos(yaw), math.sin(yaw)
            R9 = (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)
            for m in (0.7, 1.3, 2.0):
                p, v, R_new, w = advance_rigid_body((1.0, -2.0, 3.0), zero, R9, zero, m * 9.81,
                                                    zero, 1e-2, m, 9.81, J9, so3.inv3(J9),
                                                    NO_DISTURBANCE, NO_DISTURBANCE)
                assert (p, v, w) == ((1.0, -2.0, 3.0), zero, zero)
                assert np.max(np.abs(np.subtract(R_new, R9))) <= 1e-15

    def test_a_step_repairs_a_drifted_attitude(self):
        # R off the rotations by 1e-6 in every entry: the step's Gram-Schmidt
        # cleanup hands back a rotation to round-off
        J9 = params().inertia
        R9 = flat9(expm(hat((0.3, -0.1, 0.7))) + 1e-6)
        zero = (0.0, 0.0, 0.0)
        _, _, R9, _ = advance_rigid_body(zero, zero, R9, zero, 0.0, zero, 1e-3, 1.0, 9.81, J9,
                                         so3.inv3(J9), NO_DISTURBANCE, NO_DISTURBANCE)
        assert so3.ortho_error3(R9) <= 1e-15
        assert abs(so3.det3(R9) - 1.0) <= 1e-15

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
        R9 = rotation((0.3, -0.2, 0.5))
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
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), rotation((1.0, 2.0, -0.5)), (4.0, -1.0, 2.0)
        worst = 0.0
        for _ in range(10**4):
            p, v, R9, w = advance_rigid_body(
                p, v, R9, w, rng.uniform(0.0, 30.0), vector(0.05), rng.uniform(1e-4, 1e-2),
                1.0, 9.81, J9, Jinv9, (vector(1.0),) * 3, (vector(0.05),) * 3)
            worst = max(worst, so3.ortho_error3(R9), abs(so3.det3(R9) - 1.0))
        assert worst <= 1e-14
        assert all(map(math.isfinite, R9 + w))  # a nan would hide in max()


def reference_step(p, v, R9, w, f, tau, dt, m, g, J9, Jinv9, d_f, d_tau):
    """One step of the VTOL model in matrix form, written from its equations
    and not from ``advance_rigid_body``, with the same arguments (Jinv9 is
    not read): classical RK4 on (p, v, omega), at the stage attitudes R
    expm(hat(h omega)) of the step's omega for the stage offsets h = 0, dt/2,
    dt/2 and dt, with

        v_dot = g e3 + (d_f - f R e3) / m
        J omega_dot = tau + d_tau - omega x J omega   (solved by numpy)

    and then R expm(hat(dt omega_bar)) for the RK4 average omega_bar of the
    four stage rates."""
    R, J, e3 = mat(R9), mat(J9), np.array([0.0, 0.0, 1.0])
    x = np.array([p, v, w])
    stages, slopes = [], []
    for h, k in ((0.0, 0), (0.5 * dt, 1), (0.5 * dt, 1), (dt, 2)):
        y = x + h * slopes[-1] if slopes else x
        _, velocity, rate = y
        thrust_axis = R @ expm(hat(h * x[2])) @ e3
        slopes.append(np.array([
            velocity, g * e3 + (np.array(d_f[k]) - f * thrust_axis) / m,
            np.linalg.solve(J, np.add(tau, d_tau[k]) - np.cross(rate, J @ rate))]))
        stages.append(y)
    average = lambda values: (values[0] + 2.0 * values[1] + 2.0 * values[2] + values[3]) / 6.0
    p_new, v_new, w_new = x + dt * average(slopes)
    return p_new, v_new, R @ expm(hat(dt * average(stages)[2])), w_new


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


@st.composite
def rigid_body_steps(draw):
    """Every argument of one step: a full inertia, a state, a thrust, a
    torque, a step and the stage values of force and torque disturbances.

    The step is capped by the drawn rate and inertia, so that it turns the
    body by at most 1/4 rad and moves omega by at most a quarter of 1 +
    |omega| at the largest angular acceleration the inertia allows. Past
    that, RK4 is an unstable method: at dt = 0.1, |omega| = 52 and cond(J)
    = 1000 its stage rates reach 1e17 rad/s."""
    vectors = lambda bound: st.tuples(*[st.floats(-bound, bound)] * 3)
    # J = Q diag(eigenvalues) Q^T for a rotation Q, symmetrized
    Q = Rotation.from_rotvec(draw(vectors(4.0))).as_matrix()
    J = Q @ np.diag(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3))) @ Q.T
    J9 = _inertia(0.5 * (J + J.T), "plant.inertia")
    # rates of every size, so that the exponentials' angles fall on both
    # sides of their series threshold
    scale = draw(st.sampled_from([1e-4, 0.1, 30.0]))
    w = tuple(scale * c for c in draw(vectors(1.0)))
    tau = draw(vectors(1.0))
    # |omega_dot| <= (|tau + d_tau| + max(eig) |omega|^2) / min(eig), |d_tau| < 0.2
    low, high = np.linalg.eigvalsh(mat(J9))[[0, -1]]
    rate = np.linalg.norm(w)
    w_dot = (np.linalg.norm(tau) + 0.2 + high * rate * rate) / low
    dt = min(draw(st.floats(1e-5, 0.1)), 0.25 / (1.0 + rate), 0.25 * (1.0 + rate) / w_dot)
    t = draw(st.floats(0.0, 10.0))
    stages = lambda part: (NO_DISTURBANCE if part is None else
                           tuple(sample_triple(part, t + h) for h in (0.0, 0.5 * dt, dt)))
    # R by scipy's quaternions, a rotation to round-off: the step's
    # Gram-Schmidt would move an expm of a 7 rad turn by up to 2e-13
    return (draw(vectors(100.0)), draw(vectors(100.0)),
            flat9(Rotation.from_rotvec(draw(vectors(4.0))).as_matrix()), w,
            draw(st.floats(-50.0, 50.0)), tau, dt, draw(st.floats(0.05, 10.0)),
            draw(st.floats(0.0, 20.0)), J9, so3.inv3(J9),
            stages(triples(draw, 5.0)), stages(triples(draw, 0.1)))


class TestIndependentReference:
    @settings(max_examples=300, deadline=None)
    @given(rigid_body_steps())
    def test_the_step_integrates_the_rigid_body_model(self, args):
        # p, v and R agree to round-off; omega to round-off times cond(J), as
        # the step multiplies by the adjugate inverse where the reference solves.
        # Each error is relative to max(1, |reference|)
        step, reference = advance_rigid_body(*args), reference_step(*args)
        cond = np.linalg.cond(mat(args[9]))
        for got, want, bound in zip(step, reference, (1e-14, 1e-14, 1e-14, 1e-14 * cond)):
            want = np.ravel(want)
            assert np.linalg.norm(np.subtract(got, want)) <= bound * max(1.0, np.linalg.norm(want))
        # the drawn step is one of the domain: it turns the body by at most
        # 1 rad, and omega moves by at most 1 + |omega|
        w, w_new, dt = np.array(args[3]), np.array(step[3]), args[6]
        rate = np.linalg.norm(w)
        assert dt * max(rate, np.linalg.norm(w_new)) <= 1.0
        assert np.linalg.norm(w_new - w) <= 1.0 + rate


class TestVtolController:
    def test_perfect_hover_outputs_weight_and_zero_torque(self):
        p = params()
        ctrl = hover_controller(p.mass, p.gravity, p.inertia)
        f, tau = ctrl.compute(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9,
                              (0.0, 0.0, 0.0))
        assert f == pytest.approx(p.mass * p.gravity, rel=1e-15)
        assert all(abs(x) < 1e-15 for x in tau)

    def test_inertia_validation(self):
        with pytest.raises(ConfigError):
            hover_controller(1.0, 9.81, np.diag([1.0, -1.0, 1.0]))
        # a controller built in code checks its inertia with the plant.inertia parser
        with pytest.raises(ConfigError,
                           match=r"^plant.inertia: expected 3 \(diagonal\) or 9 values$"):
            hover_controller(1.0, 9.81, np.eye(2))
        with pytest.raises(ConfigError, match="^plant.mass: must be positive, got 0.0"):
            vtol_scenario(plant={"mass": 0.0})

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
