import hashlib
import math
import random

import numpy as np
import pytest
from scipy.linalg import expm

from lumped_pid.cli import main
from lumped_pid.errors import (
    AttitudeSingularityError,
    ConfigError,
    DegenerateThrustError,
    GimbalDegenerateError,
)
from lumped_pid.plants.vtol import (
    VtolController,
    VtolParams,
    HoverRef,
    _inertia,
    advance_rigid_body,
    attitude_error,
    desired_attitude,
    rigid_body_accel,
)
from lumped_pid.signals import Constant, sample_triple
from lumped_pid.sim import Scenario, run_scenario
from lumped_pid import so3


def params(m=1.0, g=9.81, J=(0.02, 0.02, 0.04)):
    return VtolParams(mass=m, gravity=g, inertia=np.diag(J))


def accel(par, f, w=(0.0, 0.0, 0.0), R9=so3.IDENTITY9, t=0.0, d_f=None, d_tau=None):
    """(v_dot, omega_dot) of ``par`` with zero control torque, under the
    disturbance triples of signals ``d_f`` and ``d_tau`` (None: zero)."""
    J9 = par.inertia
    zero = (0.0, 0.0, 0.0)
    d_f = sample_triple(d_f, t) if d_f else zero
    d_tau = sample_triple(d_tau, t) if d_tau else zero
    return rigid_body_accel((R9[2], R9[5], R9[8]), w, f, zero, 1.0 / par.mass, par.gravity,
                            J9, so3.inv3(J9), d_f, d_tau)


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
            assert np.allclose(so3.mat_vec(hat3(v), w), np.cross(v, w), atol=1e-15)

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
            assert np.allclose(mat(so3.rodrigues3(r)), expm(mat(hat3(r))), atol=1e-12)

    def test_small_angle_series(self):
        r = (1e-9, -2e-9, 5e-10)
        assert np.allclose(mat(so3.rodrigues3(r)), expm(mat(hat3(r))), atol=1e-15)

    def test_e3_column_is_bitwise_third_column(self):
        rng = random.Random(5)
        for scale in (2.0, 1e-3, 1e-7):
            for _ in range(50):
                r = tuple(rng.uniform(-scale, scale) for _ in range(3))
                assert so3.rodrigues_e3(r) == so3.rodrigues3(r)[2::3]

    def test_orthonormalize_repairs_drift(self):
        R = mat(so3.rodrigues3((0.3, -0.1, 0.7))) + 1e-6 * np.ones((3, 3))
        fixed = mat(so3.gram_schmidt3(flat9(R)))
        assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) < 1e-14
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-14)


class TestVtolDerivative:
    def test_hover_equilibrium(self):
        p = params()
        w = (0.0, 0.0, 0.0)
        v_dot, w_dot = accel(p, p.mass * p.gravity, w)
        r_dot = so3.mat_mul(so3.IDENTITY9, hat3(w))  # R_dot = R hat(omega)
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

    def test_inertia_validation(self):
        with pytest.raises(ConfigError):
            VtolParams(mass=1.0, gravity=9.81, inertia=np.diag([1.0, -1.0, 1.0]))
        # VtolParams checks its inertia with the plant.inertia parser
        with pytest.raises(ConfigError,
                           match=r"^plant.inertia: expected 3 \(diagonal\) or 9 values$"):
            VtolParams(mass=1.0, gravity=9.81, inertia=np.eye(2))
        with pytest.raises(ConfigError, match="^plant.mass: must be positive, got 0.0"):
            vtol_scenario(plant={"mass": 0.0})


class TestAttitudeError:
    def test_zero_error_rotation(self):
        R9 = so3.rodrigues3((0.2, 0.1, -0.3))
        omega = (0.4, -0.2, 0.1)
        g_t, g_dot, G = attitude_error(R9, R9, omega, (0.0, 0.0, 0.0))
        assert np.allclose(g_t, 0.0, atol=1e-15)
        assert np.allclose(mat(G), 0.5 * np.eye(3), atol=1e-15)
        assert np.allclose(g_dot, 0.5 * np.array(omega), atol=1e-15)

    def test_small_yaw_gives_half_angle_tangent(self):
        # oracle: direct construction at phi = 0.02
        phi = 0.02
        R9 = so3.rodrigues3((0.0, 0.0, phi))
        g_t, _, _ = attitude_error(R9, so3.IDENTITY9, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert g_t[2] == pytest.approx(math.tan(phi / 2), rel=1e-12)
        assert abs(g_t[0]) < 1e-15 and abs(g_t[1]) < 1e-15

    def test_rate_matches_finite_difference(self):
        # g~(t) from R(t) = R0 expm(hat(w) t) against g~_dot = G w~
        R0 = so3.rodrigues3((0.3, -0.2, 0.4))
        omega = (0.7, 0.3, -0.5)
        Rd9 = so3.rodrigues3((0.1, 0.0, -0.2))
        zero = (0.0, 0.0, 0.0)
        h = 1e-5
        for t in (0.0, 0.3, 0.9):
            R_t = so3.mat_mul(R0, so3.rodrigues3(so3.scale3(t, omega)))
            R_h = so3.mat_mul(R0, so3.rodrigues3(so3.scale3(t + h, omega)))
            g_t, g_dot, _ = attitude_error(R_t, Rd9, omega, zero)
            g_h, _, _ = attitude_error(R_h, Rd9, omega, zero)
            fd = (np.array(g_h) - np.array(g_t)) / h
            scale = np.linalg.norm(g_dot)
            assert np.linalg.norm(fd - np.array(g_dot)) / scale < 1e-3

    def test_singularity_detected(self):
        R9 = so3.rodrigues3((math.pi, 0.0, 0.0))  # tr(R~) = -1
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
        assert so3.dot3(so3.IDENTITY9[2::3], F_d) == pytest.approx(9.81)

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
        f = so3.dot3(Rd9[2::3], F_d)  # thrust through the attitude R = R_d
        assert f == pytest.approx(np.linalg.norm(F_d), rel=1e-12)

    def test_degenerate_thrust(self):
        with pytest.raises(DegenerateThrustError):
            desired_attitude((0.0, 0.0, 0.0), 0.0)

    def test_gimbal_degenerate(self):
        with pytest.raises(GimbalDegenerateError):
            desired_attitude((5.0, 0.0, 0.0), 0.0)


class TestRigidBodyIntegration:
    def test_pure_spin_matches_exact_rotation(self):
        m, g = 1.0, 0.0  # gravity off; thrust zero
        J9 = params().inertia
        Jinv9 = so3.inv3(J9)
        zero3 = lambda t: (0.0, 0.0, 0.0)
        w = (0.0, 0.0, 2.0)
        p, v, R9 = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9
        dt = 1e-3
        for k in range(1000):
            p, v, R9, w = advance_rigid_body(p, v, R9, w, 0.0, (0.0, 0.0, 0.0),
                                             k * dt, dt, m, g, J9, Jinv9, zero3, zero3)
        exact = expm(mat(hat3((0.0, 0.0, 2.0 * 1.0))))
        got = mat(R9)
        assert np.allclose(got, exact, atol=1e-9)
        assert so3.ortho_error3(R9) < 1e-12

    def test_free_fall_kinematics(self):
        m, g = 2.0, 9.81
        J9 = params().inertia
        Jinv9 = so3.inv3(J9)
        zero3 = lambda t: (0.0, 0.0, 0.0)
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9, (0.0, 0.0, 0.0)
        dt = 1e-2
        for k in range(100):
            p, v, R9, w = advance_rigid_body(p, v, R9, w, 0.0, (0.0, 0.0, 0.0),
                                             k * dt, dt, m, g, J9, Jinv9, zero3, zero3)
        assert v[2] == pytest.approx(9.81, rel=1e-12)
        assert p[2] == pytest.approx(0.5 * 9.81, rel=1e-12)


class TestVtolController:
    def test_perfect_hover_outputs_weight_and_zero_torque(self):
        p = params()
        ctrl = VtolController(p, HoverRef((0.0, 0.0, 0.0)), dt=1e-3,
                              omega_pos=2.0, omega_f=8.0, omega_att=10.0, omega_tau=20.0)
        f, tau = ctrl.compute(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9,
                              (0.0, 0.0, 0.0))
        assert f == pytest.approx(p.mass * p.gravity, rel=1e-15)
        assert all(abs(x) < 1e-15 for x in tau)

    def test_rejects_bad_bandwidths(self):
        for name in ("omega", "omega_f", "omega_att", "omega_tau"):
            with pytest.raises(ConfigError, match=f"^controller.{name}: must be positive"):
                vtol_scenario(controller={name: 0.0})


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
        par = VtolParams(mass=1.2, gravity=9.81, inertia=J)
        ctrl = VtolController(par, HoverRef((0.1, -0.2, 0.3), psi=0.2), dt=1e-3,
                              omega_pos=2.0, omega_f=8.0, omega_att=10.0, omega_tau=20.0)
        J9 = par.inertia
        Jinv9 = so3.inv3(J9)
        wind = lambda t: (0.5, -0.1, 0.0)
        spin = lambda t: (0.001, 0.0, -0.002)
        p, v, R9, w = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), so3.IDENTITY9, (0.3, -0.2, 0.1)
        for k in range(5):
            f, tau = ctrl.compute(k * 1e-3, p, v, R9, w)
            p, v, R9, w = advance_rigid_body(p, v, R9, w, f, tau, k * 1e-3, 1e-3,
                                             par.mass, par.gravity, J9, Jinv9, wind, spin)
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
# floats; every VTOL speed-up must keep these bytes.
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
        "a108264b14fe755dc0853ecb719c683039ea08b4c5b5e75a73e7afbac67209a6",
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
