"""Underactuated VTOL rigid body: model, tracking controller, runner.

Dynamics (e3 = [0,0,1], gravity along +e3, thrust along -R e3):

    p_dot = v
    m v_dot = m g e3 - f R e3 + d_f
    R_dot = R hat(omega)
    J omega_dot = -omega x (J omega) + tau + d_tau

The controller splits both loops into state feedback plus a first-order
disturbance observer. The translational loop produces a desired force F_d,
from which the desired attitude and the thrust are extracted by projection;
the attitude loop works on the error-rotation vector g~ = (R~ - R~^T)^vee /
(tr R~ + 1) with R~ = R_d^T R. The desired angular velocity comes from a
finite difference of R_d across controller steps; its error is absorbed into
the lumped torque disturbance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .. import so3
from ..config import _check_read, _choice, _float, _floats, _floats3, _positive, _reader
from ..controller import synthesize_gains
from ..errors import (
    AttitudeSingularityError,
    ConfigError,
    DegenerateThrustError,
    GimbalDegenerateError,
    check_positive,
)
from ..sim import STEP_ERRORS, Scenario, SimTrace, TraceRecorder, check_state, run_failure
from ..signals import Constant, build_signal, noise_table, sample_triple
from ..so3 import det3, inv3, mat_tmul, norm3, ortho_error3

THRUST_EPS = 1e-8      # smallest ||F_d|| that still defines a thrust axis
CROSS_EPS = 1e-8       # smallest ||b3d x b_d|| before the heading degenerates
TRACE_SINGULARITY = 1e-6  # tr(R~) + 1 below this is the g~ singularity
BANDWIDTH = "omega_f"
NO_OBSERVER = ()


def noise_channels(scenario: Scenario) -> int:
    """The noised measurement channels: p (0-2), v (3-5) and the body rate
    (6-8); R is not noised."""
    return 9


def _inertia(value, key):
    """A symmetric positive-definite inertia matrix, given diagonal (3
    values) or full (9 values row by row, or 3 rows), as the flat row-major
    9-tuple of Python floats that the rigid body reads."""
    if not isinstance(value, str):  # rows, or a matrix, read row by row
        value = np.ravel(np.asarray(value, dtype=object))
    values = _floats(value, key)
    if len(values) not in (3, 9):
        raise ConfigError(f"{key}: expected 3 (diagonal) or 9 values")
    if len(values) == 3:
        values = (values[0], 0.0, 0.0, 0.0, values[1], 0.0, 0.0, 0.0, values[2])
    J = np.reshape(values, (3, 3))
    with np.errstate(over="ignore"):  # a huge asymmetry overflows to inf: not close
        if not np.allclose(J, J.T, atol=1e-12):
            raise ConfigError(f"{key}: must be symmetric")
    if np.any(np.linalg.eigvalsh(J) <= 0.0):
        raise ConfigError(f"{key}: must be a positive-definite matrix")
    # the rigid body reads inv3(values), 1 / det3 times the adjugate: a
    # determinant that is not a normal float, or an entry that overflows,
    # gives none
    if not (sys.float_info.min <= det3(values) < math.inf
            and all(map(math.isfinite, inv3(values)))):
        raise ConfigError(f"{key}: its determinant or inverse is beyond the float range")
    return values


# Each option: its parser and default; a p0 or v0 of None is the reference's
# at t = 0. The controller options are one bandwidth per loop and observer.
OPTIONS = {"plant.mass": (_positive, 1.0), "plant.gravity": (_float, 9.81),
           "plant.inertia": (_inertia, (0.02, 0.0, 0.0, 0.0, 0.02, 0.0, 0.0, 0.0, 0.04)),
           "plant.p0": (_floats3, None), "plant.v0": (_floats3, None),
           "reference.kind": (_choice("hover", "circle", "lissajous"), "hover"),
           "reference.psi": (_float, 0.0), "reference.position": (_floats3, (0.0, 0.0, 0.0)),
           "reference.radius": (_float, 1.0), "reference.omega": (_float, 1.0),
           "reference.height": (_float, 0.0), "reference.amplitude": (_floats3, (1.0, 1.0, 0.0)),
           "reference.freq": (_floats3, (1.0, 2.0, 0.0)),
           "reference.phase": (_floats3, (0.0, 0.0, 0.0)),
           "controller.omega": (_positive, 2.0), "controller.omega_f": (_positive, 8.0),
           "controller.omega_att": (_positive, 10.0), "controller.omega_tau": (_positive, 20.0)}
# The reference options a reference kind does not read; every kind reads psi.
_UNREAD = {("kind", "hover"): ("radius", "omega", "height", "amplitude", "freq", "phase"),
           ("kind", "circle"): ("position", "amplitude", "freq", "phase"),
           ("kind", "lissajous"): ("position", "radius", "omega")}


def _triple_signal(flat: dict, prefix: str):
    """Three signals of one kind, one per component of value or amplitude."""
    kind = flat.get(prefix + ".kind", "none")
    if kind == "none":
        return None
    vector = "amplitude" if kind == "sinusoid" else "value"
    field = _reader(flat, prefix)
    return tuple(
        build_signal(kind, lambda name, default, c=c: c if name == vector else field(name, default),
                     prefix + ".kind")
        for c in _reader(flat, prefix, _floats3)(vector, (0.0, 0.0, 0.0))
    )


def parse_disturbance(flat: dict) -> dict:
    """The force [N] and torque [N m] disturbance triples."""
    return {part: _triple_signal(flat, f"disturbance.{part}") for part in ("force", "torque")}


def check(scenario: Scenario) -> None:
    """Rules across options: the disturbance is a dict of ``force`` and ``torque``
    parts, each None or three signals of t; the reference kind reads every non-default option."""
    disturbance = scenario.disturbance
    if not (isinstance(disturbance, dict) and set(disturbance) <= {"force", "torque"}
            and all(part is None or isinstance(part, (tuple, list)) and len(part) == 3
                    and all(map(callable, part)) for part in disturbance.values())):
        raise ConfigError(f"disturbance: expected a dict of force and torque triples of "
                          f"signals of t, got {disturbance!r}")
    _check_read(scenario.plant["reference"], OPTIONS, _UNREAD, "reference")


SIGNAL = "err_norm"
OBSERVER = None  # the trace records the estimates but not the true disturbances
PLOTS = (
    ("position", ("px", "py", "pz"), "position", "p [m]"),
    ("error", ("err_norm",), "tracking error", "|p err| [m]"),
)
lockstep = None  # run takes one scenario, not a list
bound = None  # no ultimate-bound check applies


def _triple_sampler(signals):
    """t -> disturbance triple; absent or all-Constant signals are sampled once."""
    if not signals:
        return lambda t: (0.0, 0.0, 0.0)
    if all(isinstance(s, Constant) for s in signals):
        value = sample_triple(signals, 0.0)
        return lambda t: value
    return lambda t: sample_triple(signals, t)


def desired_attitude(F_d, psi_d):
    """Desired rotation R_d = [b2d x b3d, (b3d x b_d)/||.||, F_d/||F_d||] for
    the heading b_d = (cos psi_d, sin psi_d, 0), as a flat 9-tuple."""
    fx, fy, fz = F_d
    nF = math.sqrt(fx * fx + fy * fy + fz * fz)
    if nF <= THRUST_EPS:
        raise DegenerateThrustError(f"||F_d|| = {nF:g} too small to define a thrust axis")
    s = 1.0 / nF
    x3, y3, z3 = s * fx, s * fy, s * fz
    hx, hy = math.cos(psi_d), math.sin(psi_d)
    # c = b3d x b_d; the heading's zero z still enters as the `* 0.0` terms
    cx, cy, cz = y3 * 0.0 - z3 * hy, z3 * hx - x3 * 0.0, x3 * hy - y3 * hx
    nc = math.sqrt(cx * cx + cy * cy + cz * cz)
    if nc <= CROSS_EPS:
        raise GimbalDegenerateError("thrust axis is parallel to the heading vector")
    s = 1.0 / nc
    x2, y2, z2 = s * cx, s * cy, s * cz
    # b1d = b2d x b3d
    return (y2 * z3 - z2 * y3, x2, x3, z2 * x3 - x2 * z3, y2, y3, x2 * y3 - y2 * x3, z2, z3)


def attitude_error(R9, Rd9, w, wd):
    """Error-rotation vector g~ of R~ = R_d^T R, its rate g~_dot = G w~ with
    w~ = w - R~^T w_d, and the map G, from flat 9-tuples."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = mat_tmul(Rd9, R9)  # R~ = R_d^T R
    denom = t0 + t4 + t8 + 1.0
    if denom < TRACE_SINGULARITY:
        raise AttitudeSingularityError(f"tr(R~)+1 = {denom:g} below {TRACE_SINGULARITY:g}")
    gx, gy, gz = g_t = ((t7 - t5) / denom, (t2 - t6) / denom, (t3 - t1) / denom)
    # G = (I + hat(g) + g g^T)/2
    G = G0, G1, G2, G3, G4, G5, G6, G7, G8 = (
        0.5 * (1.0 + gx * gx), 0.5 * (-gz + gx * gy), 0.5 * (gy + gx * gz),
        0.5 * (gz + gy * gx), 0.5 * (1.0 + gy * gy), 0.5 * (-gx + gy * gz),
        0.5 * (-gy + gz * gx), 0.5 * (gx + gz * gy), 0.5 * (1.0 + gz * gz),
    )
    dx, dy, dz = wd
    ux = w[0] - (t0 * dx + t3 * dy + t6 * dz)  # w~ = w - R~^T w_d
    uy = w[1] - (t1 * dx + t4 * dy + t7 * dz)
    uz = w[2] - (t2 * dx + t5 * dy + t8 * dz)
    return g_t, (G0 * ux + G1 * uy + G2 * uz, G3 * ux + G4 * uy + G5 * uz,
                 G6 * ux + G7 * uy + G8 * uz), G


# A reference's at(t) gives its position and velocity from one set of sines and
# cosines (its accelerations are lumped); it holds the constant heading psi.
@dataclass(frozen=True)
class HoverRef:
    """A fixed position p."""
    p: tuple
    psi: float = 0.0

    def at(self, t):
        return self.p, (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CircleRef:
    """(r cos wt, r sin wt, height), counterclockwise at the rate omega."""
    radius: float
    omega: float
    height: float
    psi: float = 0.0

    def at(self, t):
        wt = self.omega * t
        c, s = math.cos(wt), math.sin(wt)
        r, rw = self.radius, self.radius * self.omega
        return (r * c, r * s, self.height), (-rw * s, rw * c, 0.0)


@dataclass(frozen=True)
class LissajousRef:
    """Component i is a_i sin(f_i t + phase_i), offset by height on z."""
    amplitude: tuple
    freq: tuple
    phase: tuple
    height: float
    psi: float = 0.0

    def at(self, t):
        (a0, a1, a2), (f0, f1, f2), (h0, h1, h2) = self.amplitude, self.freq, self.phase
        w0, w1, w2 = f0 * t + h0, f1 * t + h1, f2 * t + h2
        return ((a0 * math.sin(w0), a1 * math.sin(w1), self.height + a2 * math.sin(w2)),
                (a0 * f0 * math.cos(w0), a1 * f1 * math.cos(w1), a2 * f2 * math.cos(w2)))


def _observer_step3(a, e, e_dot, integral, omega_f, dt):
    """The n = 2 law of :func:`~lumped_pid.controller.observer_step` with
    b = 1 on three axes at once, by the rectangular rule: u_x = -k0 e -
    k1 e_dot and f_hat = omega_f (e_dot - integral) per axis, for the gains
    ``a`` = (k0, k1). Returns u_x, f_hat and the integral advanced by dt u_x."""
    k0, k1 = a
    ex, ey, ez = e
    vx, vy, vz = e_dot
    ix, iy, iz = integral
    u_x = (-k0 * ex - k1 * vx, -k0 * ey - k1 * vy, -k0 * ez - k1 * vz)
    f_hat = (omega_f * (vx - ix), omega_f * (vy - iy), omega_f * (vz - iz))
    return u_x, f_hat, (ix + dt * u_x[0], iy + dt * u_x[1], iz + dt * u_x[2])


class VtolController:
    """Translational + attitude loops, each the n = 2 law on three axes
    (:func:`_observer_step3`) with its own equal-pole gains and observer.
    ``inertia`` is any value plant.inertia takes, kept as its parser's 9-tuple."""

    def __init__(self, mass: float, gravity: float, inertia, reference, dt: float,
                 omega_pos: float, omega_f: float, omega_att: float, omega_tau: float):
        self.mass, self.gravity, self.inertia = mass, gravity, _inertia(inertia, "plant.inertia")
        self.reference = reference
        self.dt = check_positive(dt, "dt")
        self.a_pos = synthesize_gains(2, check_positive(omega_pos, "omega_pos"))
        self.omega_f = check_positive(omega_f, "omega_f")
        self.a_att = synthesize_gains(2, check_positive(omega_att, "omega_att"))
        self.omega_tau = check_positive(omega_tau, "omega_tau")
        self._int_F = (0.0, 0.0, 0.0)  # the observer integrals of F_x and tau_x
        self._int_T = (0.0, 0.0, 0.0)
        self._prev_Rd = None
        # last-step diagnostics
        self.d_f_hat = (0.0, 0.0, 0.0)
        self.d_tau_hat = (0.0, 0.0, 0.0)
        self.p_err = (0.0, 0.0, 0.0)

    def compute(self, t, p, v, R9, w):
        dt = self.dt
        m = self.mass
        reference = self.reference
        rp, rv = reference.at(t)
        p_err = (p[0] - rp[0], p[1] - rp[1], p[2] - rp[2])
        F_x, d_f_hat, self._int_F = _observer_step3(
            self.a_pos, p_err, (v[0] - rv[0], v[1] - rv[1], v[2] - rv[2]), self._int_F,
            self.omega_f, dt)
        Fx = -m * (F_x[0] - d_f_hat[0])
        Fy = -m * (F_x[1] - d_f_hat[1])
        Fz = -m * (F_x[2] - d_f_hat[2] - self.gravity)

        Rd9 = desired_attitude((Fx, Fy, Fz), reference.psi)
        f = R9[2] * Fx + R9[5] * Fy + R9[8] * Fz

        if self._prev_Rd is None:
            w_d = (0.0, 0.0, 0.0)
        else:
            # omega_d = vee(skew part of R_d^T (R_d - R_d,prev)) / dt; only
            # the off-diagonal entries of S = R_d^T (R_d - R_d,prev) are read
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = Rd9
            q0, q1, q2, q3, q4, q5, q6, q7, q8 = self._prev_Rd
            d0, d1, d2 = a0 - q0, a1 - q1, a2 - q2
            d3, d4, d5 = a3 - q3, a4 - q4, a5 - q5
            d6, d7, d8 = a6 - q6, a7 - q7, a8 - q8
            inv2dt = 0.5 / dt
            w_d = (
                ((a2 * d1 + a5 * d4 + a8 * d7) - (a1 * d2 + a4 * d5 + a7 * d8)) * inv2dt,
                ((a0 * d2 + a3 * d5 + a6 * d8) - (a2 * d0 + a5 * d3 + a8 * d6)) * inv2dt,
                ((a1 * d0 + a4 * d3 + a7 * d6) - (a0 * d1 + a3 * d4 + a6 * d7)) * inv2dt,
            )
        self._prev_Rd = Rd9

        g_t, g_dot, G = attitude_error(R9, Rd9, w, w_d)
        tau_x, d_tau_hat, self._int_T = _observer_step3(
            self.a_att, g_t, g_dot, self._int_T, self.omega_tau, dt)
        # tau = J G^-1 (tau_x - d_tau_hat), with G^-1 = adj(G) / det(G) as in so3.inv3
        ux, uy, uz = tau_x[0] - d_tau_hat[0], tau_x[1] - d_tau_hat[1], tau_x[2] - d_tau_hat[2]
        G0, G1, G2, G3, G4, G5, G6, G7, G8 = G
        c0, c6 = G4 * G8 - G5 * G7, G3 * G7 - G4 * G6  # minors shared by det(G) and adj(G)
        inv_d = 1.0 / (G0 * c0 - G1 * (G3 * G8 - G5 * G6) + G2 * c6)
        yx = c0 * inv_d * ux + (G2 * G7 - G1 * G8) * inv_d * uy + (G1 * G5 - G2 * G4) * inv_d * uz
        yy = ((G5 * G6 - G3 * G8) * inv_d * ux + (G0 * G8 - G2 * G6) * inv_d * uy
              + (G2 * G3 - G0 * G5) * inv_d * uz)
        yz = c6 * inv_d * ux + (G1 * G6 - G0 * G7) * inv_d * uy + (G0 * G4 - G1 * G3) * inv_d * uz
        J0, J1, J2, J3, J4, J5, J6, J7, J8 = self.inertia
        tau = (J0 * yx + J1 * yy + J2 * yz, J3 * yx + J4 * yy + J5 * yz,
               J6 * yx + J7 * yy + J8 * yz)

        self.d_f_hat = d_f_hat
        self.d_tau_hat = d_tau_hat
        self.p_err = p_err
        return f, tau


def advance_rigid_body(p, v, R9, w, f, tau, t, dt, mass, g, J9, Jinv9, d_f_eval, d_tau_eval):
    """One integration step: RK4 on (p, v, omega) with the rotation carried to
    stage times by the Rodrigues exponential, then a full-step exponential
    with the RK4-averaged angular velocity and Gram-Schmidt cleanup.

    The step is straight-line float code: each stage's v_dot (the thrust
    part of the model) and omega_dot (Euler's equation, J^-1 (tau - omega x
    (J omega) + d_tau)) is written out component by component, as are the
    exponentials and the cleanup. v_dot reads a stage rotation only through
    its thrust axis R e3, so the stages carry just that column; stages 2
    and 3 share the midpoint axis, thrust and d_f, so their v_dot is one
    value, computed once. Gram-Schmidt rebuilds the third column, so the
    full-step product R exp(hat(r)) is formed for its first two only."""
    half = 0.5 * dt
    inv_m = 1.0 / mass
    df0, df_m, df1 = d_f_eval(t), d_f_eval(t + half), d_f_eval(t + dt)
    dt0, dt_m, dt1 = d_tau_eval(t), d_tau_eval(t + half), d_tau_eval(t + dt)
    px, py, pz = p
    vx, vy, vz = v
    wx, wy, wz = w
    tx, ty, tz = tau
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = R9
    J0, J1, J2, J3, J4, J5, J6, J7, J8 = J9
    K0, K1, K2, K3, K4, K5, K6, K7, K8 = Jinv9

    # the thrust axes R exp(hat(r)) e3 at the midpoint, r = (dt/2) omega, and
    # at the end, r = dt omega; exp(hat(r)) = I + a hat(r) + b hat(r)^2 with
    # a = sin(phi)/phi and b = (1 - cos(phi))/phi^2, by series below 1e-6 rad
    x, y, z = half * wx, half * wy, half * wz
    phi2 = x * x + y * y + z * z
    phi = math.sqrt(phi2)
    if phi < 1e-6:
        a, b = 1.0 - phi2 / 6.0, 0.5 - phi2 / 24.0
    else:
        a, b = math.sin(phi) / phi, (1.0 - math.cos(phi)) / phi2
    ex, ey, ez = b * (x * z) + a * y, b * (y * z) - a * x, 1.0 - b * (x * x + y * y)
    nmx, nmy, nmz = (r0 * ex + r1 * ey + r2 * ez, r3 * ex + r4 * ey + r5 * ez,
                     r6 * ex + r7 * ey + r8 * ez)
    x, y, z = dt * wx, dt * wy, dt * wz
    phi2 = x * x + y * y + z * z
    phi = math.sqrt(phi2)
    if phi < 1e-6:
        a, b = 1.0 - phi2 / 6.0, 0.5 - phi2 / 24.0
    else:
        a, b = math.sin(phi) / phi, (1.0 - math.cos(phi)) / phi2
    ex, ey, ez = b * (x * z) + a * y, b * (y * z) - a * x, 1.0 - b * (x * x + y * y)
    nex, ney, nez = (r0 * ex + r1 * ey + r2 * ez, r3 * ex + r4 * ey + r5 * ez,
                     r6 * ex + r7 * ey + r8 * ez)

    # stage 1, at (p, v, R, omega)
    a1x, a1y, a1z = ((-f * r2 + df0[0]) * inv_m, (-f * r5 + df0[1]) * inv_m,
                     g + (-f * r8 + df0[2]) * inv_m)
    jx = J0 * wx + J1 * wy + J2 * wz
    jy = J3 * wx + J4 * wy + J5 * wz
    jz = J6 * wx + J7 * wy + J8 * wz
    ux = tx - (wy * jz - wz * jy) + dt0[0]
    uy = ty - (wz * jx - wx * jz) + dt0[1]
    uz = tz - (wx * jy - wy * jx) + dt0[2]
    l1x, l1y, l1z = (K0 * ux + K1 * uy + K2 * uz, K3 * ux + K4 * uy + K5 * uz,
                     K6 * ux + K7 * uy + K8 * uz)
    # stage 2; its v_dot is also stage 3's
    a2x, a2y, a2z = ((-f * nmx + df_m[0]) * inv_m, (-f * nmy + df_m[1]) * inv_m,
                     g + (-f * nmz + df_m[2]) * inv_m)
    w2x, w2y, w2z = wx + half * l1x, wy + half * l1y, wz + half * l1z
    jx = J0 * w2x + J1 * w2y + J2 * w2z
    jy = J3 * w2x + J4 * w2y + J5 * w2z
    jz = J6 * w2x + J7 * w2y + J8 * w2z
    ux = tx - (w2y * jz - w2z * jy) + dt_m[0]
    uy = ty - (w2z * jx - w2x * jz) + dt_m[1]
    uz = tz - (w2x * jy - w2y * jx) + dt_m[2]
    l2x, l2y, l2z = (K0 * ux + K1 * uy + K2 * uz, K3 * ux + K4 * uy + K5 * uz,
                     K6 * ux + K7 * uy + K8 * uz)
    # stage 3
    w3x, w3y, w3z = wx + half * l2x, wy + half * l2y, wz + half * l2z
    jx = J0 * w3x + J1 * w3y + J2 * w3z
    jy = J3 * w3x + J4 * w3y + J5 * w3z
    jz = J6 * w3x + J7 * w3y + J8 * w3z
    ux = tx - (w3y * jz - w3z * jy) + dt_m[0]
    uy = ty - (w3z * jx - w3x * jz) + dt_m[1]
    uz = tz - (w3x * jy - w3y * jx) + dt_m[2]
    l3x, l3y, l3z = (K0 * ux + K1 * uy + K2 * uz, K3 * ux + K4 * uy + K5 * uz,
                     K6 * ux + K7 * uy + K8 * uz)
    # stage 4
    w4x, w4y, w4z = wx + dt * l3x, wy + dt * l3y, wz + dt * l3z
    a4x, a4y, a4z = ((-f * nex + df1[0]) * inv_m, (-f * ney + df1[1]) * inv_m,
                     g + (-f * nez + df1[2]) * inv_m)
    jx = J0 * w4x + J1 * w4y + J2 * w4z
    jy = J3 * w4x + J4 * w4y + J5 * w4z
    jz = J6 * w4x + J7 * w4y + J8 * w4z
    ux = tx - (w4y * jz - w4z * jy) + dt1[0]
    uy = ty - (w4z * jx - w4x * jz) + dt1[1]
    uz = tz - (w4x * jy - w4y * jx) + dt1[2]
    l4x, l4y, l4z = (K0 * ux + K1 * uy + K2 * uz, K3 * ux + K4 * uy + K5 * uz,
                     K6 * ux + K7 * uy + K8 * uz)

    sixth = dt / 6.0
    # the stage velocities v + (dt/2) a1, v + (dt/2) a2 and v + dt a3
    p_new = (
        px + sixth * (vx + 2.0 * ((vx + half * a1x) + (vx + half * a2x)) + (vx + dt * a2x)),
        py + sixth * (vy + 2.0 * ((vy + half * a1y) + (vy + half * a2y)) + (vy + dt * a2y)),
        pz + sixth * (vz + 2.0 * ((vz + half * a1z) + (vz + half * a2z)) + (vz + dt * a2z)),
    )
    v_new = (
        vx + sixth * (a1x + 2.0 * (a2x + a2x) + a4x),
        vy + sixth * (a1y + 2.0 * (a2y + a2y) + a4y),
        vz + sixth * (a1z + 2.0 * (a2z + a2z) + a4z),
    )
    w_new = (
        wx + sixth * (l1x + 2.0 * (l2x + l3x) + l4x),
        wy + sixth * (l1y + 2.0 * (l2y + l3y) + l4y),
        wz + sixth * (l1z + 2.0 * (l2z + l3z) + l4z),
    )

    # the full step R exp(hat(r)) for r = dt times the RK4-averaged omega
    x = dt * ((wx + 2.0 * (w2x + w3x) + w4x) / 6.0)
    y = dt * ((wy + 2.0 * (w2y + w3y) + w4y) / 6.0)
    z = dt * ((wz + 2.0 * (w2z + w3z) + w4z) / 6.0)
    xx, yy, zz = x * x, y * y, z * z
    phi2 = xx + yy + zz
    phi = math.sqrt(phi2)
    if phi < 1e-6:
        a, b = 1.0 - phi2 / 6.0, 0.5 - phi2 / 24.0
    else:
        a, b = math.sin(phi) / phi, (1.0 - math.cos(phi)) / phi2
    xy, xz, yz = x * y, x * z, y * z
    e0, e1 = 1.0 - b * (yy + zz), b * xy - a * z
    e3, e4 = b * xy + a * z, 1.0 - b * (xx + zz)
    e6, e7 = b * xz - a * y, b * yz + a * x
    m0, m1 = r0 * e0 + r1 * e3 + r2 * e6, r0 * e1 + r1 * e4 + r2 * e7
    m3, m4 = r3 * e0 + r4 * e3 + r5 * e6, r3 * e1 + r4 * e4 + r5 * e7
    m6, m7 = r6 * e0 + r7 * e3 + r8 * e6, r6 * e1 + r7 * e4 + r8 * e7
    # Gram-Schmidt: b0 the first column normalized, b1 the second less its
    # b0 part, normalized, and b2 = b0 x b1, so that det = +1
    s = 1.0 / math.sqrt(m0 * m0 + m3 * m3 + m6 * m6)
    x0, y0, z0 = s * m0, s * m3, s * m6
    d = x0 * m1 + y0 * m4 + z0 * m7
    cx, cy, cz = m1 - d * x0, m4 - d * y0, m7 - d * z0
    s = 1.0 / math.sqrt(cx * cx + cy * cy + cz * cz)
    x1, y1, z1 = s * cx, s * cy, s * cz
    R_new = (x0, x1, y0 * z1 - z0 * y1, y0, y1, z0 * x1 - x0 * z1, z0, z1, x0 * y1 - y0 * x1)
    return p_new, v_new, R_new, w_new


def _build_reference(opts: dict) -> HoverRef | CircleRef | LissajousRef:
    if opts["kind"] == "hover":
        return HoverRef(opts["position"], opts["psi"])
    if opts["kind"] == "circle":
        return CircleRef(opts["radius"], opts["omega"], opts["height"], opts["psi"])
    return LissajousRef(opts["amplitude"], opts["freq"], opts["phase"], opts["height"],
                        opts["psi"])


def run(scenario: Scenario) -> SimTrace:
    opts = scenario.plant
    m, g = opts["mass"], opts["gravity"]
    reference = _build_reference(opts["reference"])

    c = scenario.controller
    controller = VtolController(m, g, opts["inertia"], reference, scenario.dt, c["omega"],
                                c["omega_f"], c["omega_att"], c["omega_tau"])

    p, v = reference.at(0.0)
    p = p if opts["p0"] is None else opts["p0"]
    v = v if opts["v0"] is None else opts["v0"]
    R9 = so3.IDENTITY9
    w = (0.0, 0.0, 0.0)

    J9 = controller.inertia
    Jinv9 = inv3(J9)
    d_f_eval = _triple_sampler(scenario.disturbance.get("force"))
    d_tau_eval = _triple_sampler(scenario.disturbance.get("torque"))

    dt = scenario.dt
    n_steps = scenario.n_steps
    decimation = scenario.decimation
    noise = noise_table(scenario.noise, noise_channels(scenario), n_steps + 1)

    names = (
        ["t", "px", "py", "pz", "vx", "vy", "vz"]
        + [f"r{i}{j}" for i in range(3) for j in range(3)]
        + ["wx", "wy", "wz", "thrust", "taux", "tauy", "tauz",
           "errx", "erry", "errz", "err_norm",
           "dfhx", "dfhy", "dfhz", "dthx", "dthy", "dthz",
           "ortho_err", "det_err"]
    )
    rec = TraceRecorder(names, n_steps, decimation)

    try:
        for k in range(n_steps + 1):
            t = k * dt
            check_state(p + v + w, t, k)
            if noise is None:
                zp, zv, zw = p, v, w
            else:
                e = noise[k].tolist()
                zp = (p[0] + e[0], p[1] + e[1], p[2] + e[2])
                zv = (v[0] + e[3], v[1] + e[4], v[2] + e[5])
                zw = (w[0] + e[6], w[1] + e[7], w[2] + e[8])
            f, tau = controller.compute(t, zp, zv, R9, zw)
            if k % decimation == 0:
                err = controller.p_err
                rec.record(k, [
                    t, *p, *v, *R9, *w, f, *tau, *err, norm3(err),
                    *controller.d_f_hat, *controller.d_tau_hat,
                    ortho_error3(R9), det3(R9) - 1.0,
                ])
            if k < n_steps:
                p, v, R9, w = advance_rigid_body(
                    p, v, R9, w, f, tau, t, dt, m, g, J9, Jinv9, d_f_eval, d_tau_eval
                )
    except STEP_ERRORS as exc:
        raise run_failure(exc, k, t)
    return rec.build()

