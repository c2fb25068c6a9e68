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
    LumpedPidError,
)
from ..sim import Scenario, SimTrace, TraceRecorder, check_state
from ..signals import Constant, build_signal, noise_table, sample_triple
from ..so3 import (
    cross3,
    det3,
    dot3,
    gram_schmidt3,
    inv3,
    mat_mul,
    mat_tmul,
    mat_tvec,
    mat_vec,
    norm3,
    ortho_error3,
    rodrigues3,
    rodrigues_e3,
    scale3,
    sub3,
    trace,
)

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
LOCKSTEP = None
bound = None  # no ultimate-bound check applies


@dataclass(frozen=True)
class VtolParams:
    mass: float
    gravity: float
    inertia: tuple  # any value plant.inertia takes; kept as its parser's 9-tuple

    def __post_init__(self):
        object.__setattr__(self, "inertia", _inertia(self.inertia, "plant.inertia"))


def rigid_body_accel(n, w, f, tau, inv_m, g, J9, Jinv9, d_f, d_tau):
    """(v_dot, omega_dot) of the model above, with ``inv_m = 1/m`` and the
    disturbance values ``d_f``, ``d_tau``. The attitude enters only through
    the thrust axis n = R e3; the integrator advances R separately
    (R_dot = R hat(omega))."""
    wx, wy, wz = w
    J0, J1, J2, J3, J4, J5, J6, J7, J8 = J9
    K0, K1, K2, K3, K4, K5, K6, K7, K8 = Jinv9
    jx = J0 * wx + J1 * wy + J2 * wz
    jy = J3 * wx + J4 * wy + J5 * wz
    jz = J6 * wx + J7 * wy + J8 * wz
    # tau - omega x (J omega) + d_tau
    ux = tau[0] - (wy * jz - wz * jy) + d_tau[0]
    uy = tau[1] - (wz * jx - wx * jz) + d_tau[1]
    uz = tau[2] - (wx * jy - wy * jx) + d_tau[2]
    return (
        (-f * n[0] + d_f[0]) * inv_m,
        (-f * n[1] + d_f[1]) * inv_m,
        g + (-f * n[2] + d_f[2]) * inv_m,
    ), (
        K0 * ux + K1 * uy + K2 * uz,
        K3 * ux + K4 * uy + K5 * uz,
        K6 * ux + K7 * uy + K8 * uz,
    )


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
    nF = norm3(F_d)
    if nF <= THRUST_EPS:
        raise DegenerateThrustError(f"||F_d|| = {nF:g} too small to define a thrust axis")
    b3 = scale3(1.0 / nF, F_d)
    b_head = (math.cos(psi_d), math.sin(psi_d), 0.0)
    c = cross3(b3, b_head)
    nc = norm3(c)
    if nc <= CROSS_EPS:
        raise GimbalDegenerateError("thrust axis is parallel to the heading vector")
    b2 = scale3(1.0 / nc, c)
    b1 = cross3(b2, b3)
    return (b1[0], b2[0], b3[0], b1[1], b2[1], b3[1], b1[2], b2[2], b3[2])


def attitude_error(R9, Rd9, w, wd):
    """Error-rotation vector g~ of R~ = R_d^T R, its rate g~_dot = G w~ with
    w~ = w - R~^T w_d, and the map G, from flat 9-tuples."""
    Rt = mat_tmul(Rd9, R9)  # R~ = R_d^T R
    denom = trace(Rt) + 1.0
    if denom < TRACE_SINGULARITY:
        raise AttitudeSingularityError(f"tr(R~)+1 = {denom:g} below {TRACE_SINGULARITY:g}")
    g_t = (
        (Rt[7] - Rt[5]) / denom,
        (Rt[2] - Rt[6]) / denom,
        (Rt[3] - Rt[1]) / denom,
    )
    # G = (I + hat(g) + g g^T)/2
    gx, gy, gz = g_t
    G = (
        0.5 * (1.0 + gx * gx), 0.5 * (-gz + gx * gy), 0.5 * (gy + gx * gz),
        0.5 * (gz + gy * gx), 0.5 * (1.0 + gy * gy), 0.5 * (-gx + gy * gz),
        0.5 * (-gy + gz * gx), 0.5 * (gx + gz * gy), 0.5 * (1.0 + gz * gz),
    )
    w_t = sub3(w, mat_tvec(Rt, wd))
    g_dot = mat_vec(G, w_t)
    return g_t, g_dot, G


# A reference gives position(t) and velocity(t) (its accelerations are
# lumped) and holds the constant heading psi.
@dataclass(frozen=True)
class HoverRef:
    p: tuple
    psi: float = 0.0

    def position(self, t):
        return self.p

    def velocity(self, t):
        return (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CircleRef:
    radius: float
    omega: float
    height: float
    psi: float = 0.0

    def position(self, t):
        return (self.radius * math.cos(self.omega * t),
                self.radius * math.sin(self.omega * t), self.height)

    def velocity(self, t):
        rw = self.radius * self.omega
        return (-rw * math.sin(self.omega * t), rw * math.cos(self.omega * t), 0.0)


@dataclass(frozen=True)
class LissajousRef:
    amplitude: tuple
    freq: tuple
    phase: tuple
    height: float
    psi: float = 0.0

    def position(self, t):
        a, f, ph = self.amplitude, self.freq, self.phase
        return (a[0] * math.sin(f[0] * t + ph[0]),
                a[1] * math.sin(f[1] * t + ph[1]),
                self.height + a[2] * math.sin(f[2] * t + ph[2]))

    def velocity(self, t):
        a, f, ph = self.amplitude, self.freq, self.phase
        return (a[0] * f[0] * math.cos(f[0] * t + ph[0]),
                a[1] * f[1] * math.cos(f[1] * t + ph[1]),
                a[2] * f[2] * math.cos(f[2] * t + ph[2]))


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
    (:func:`_observer_step3`) with its own equal-pole gains and observer."""

    def __init__(self, params: VtolParams, reference, dt: float,
                 omega_pos: float, omega_f: float, omega_att: float, omega_tau: float):
        self.params = params
        self.reference = reference
        self.dt = dt
        self.a_pos = synthesize_gains(2, omega_pos).a
        self.a_att = synthesize_gains(2, omega_att).a
        self.omega_f = omega_f
        self.omega_tau = omega_tau
        self._int_F = (0.0, 0.0, 0.0)  # the observer integrals of F_x and tau_x
        self._int_T = (0.0, 0.0, 0.0)
        self._prev_Rd = None
        # last-step diagnostics
        self.d_f_hat = (0.0, 0.0, 0.0)
        self.d_tau_hat = (0.0, 0.0, 0.0)
        self.p_err = (0.0, 0.0, 0.0)

    def compute(self, t, p, v, R9, w):
        dt = self.dt
        m = self.params.mass
        p_err = sub3(p, self.reference.position(t))
        F_x, d_f_hat, self._int_F = _observer_step3(
            self.a_pos, p_err, sub3(v, self.reference.velocity(t)), self._int_F, self.omega_f, dt)
        F_d = (
            -m * (F_x[0] - d_f_hat[0]),
            -m * (F_x[1] - d_f_hat[1]),
            -m * (F_x[2] - d_f_hat[2] - self.params.gravity),
        )

        Rd9 = desired_attitude(F_d, self.reference.psi)
        f = dot3((R9[2], R9[5], R9[8]), F_d)

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
        tau = mat_vec(self.params.inertia, mat_vec(inv3(G), sub3(tau_x, d_tau_hat)))

        self.d_f_hat = d_f_hat
        self.d_tau_hat = d_tau_hat
        self.p_err = p_err
        return f, tau


def advance_rigid_body(p, v, R9, w, f, tau, t, dt, mass, g, J9, Jinv9, d_f_eval, d_tau_eval):
    """One integration step: RK4 on (p, v, omega) with the rotation carried to
    stage times by the Rodrigues exponential, then a full-step exponential
    with the RK4-averaged angular velocity and Gram-Schmidt cleanup.

    The derivative reads a stage rotation only through its thrust axis R e3,
    so the stages carry just that column."""
    half = 0.5 * dt
    inv_m = 1.0 / mass
    df0, df_m, df1 = d_f_eval(t), d_f_eval(t + half), d_f_eval(t + dt)
    dt0, dt_m, dt1 = d_tau_eval(t), d_tau_eval(t + half), d_tau_eval(t + dt)
    px, py, pz = p
    vx, vy, vz = v
    wx, wy, wz = w

    n_mid = mat_vec(R9, rodrigues_e3((half * wx, half * wy, half * wz)))
    n_end = mat_vec(R9, rodrigues_e3((dt * wx, dt * wy, dt * wz)))

    a1, l1 = rigid_body_accel((R9[2], R9[5], R9[8]), w, f, tau, inv_m, g, J9, Jinv9, df0, dt0)
    v2 = (vx + half * a1[0], vy + half * a1[1], vz + half * a1[2])
    w2 = (wx + half * l1[0], wy + half * l1[1], wz + half * l1[2])
    a2, l2 = rigid_body_accel(n_mid, w2, f, tau, inv_m, g, J9, Jinv9, df_m, dt_m)
    v3 = (vx + half * a2[0], vy + half * a2[1], vz + half * a2[2])
    w3 = (wx + half * l2[0], wy + half * l2[1], wz + half * l2[2])
    a3, l3 = rigid_body_accel(n_mid, w3, f, tau, inv_m, g, J9, Jinv9, df_m, dt_m)
    v4 = (vx + dt * a3[0], vy + dt * a3[1], vz + dt * a3[2])
    w4 = (wx + dt * l3[0], wy + dt * l3[1], wz + dt * l3[2])
    a4, l4 = rigid_body_accel(n_end, w4, f, tau, inv_m, g, J9, Jinv9, df1, dt1)

    sixth = dt / 6.0
    p_new = (
        px + sixth * (vx + 2.0 * (v2[0] + v3[0]) + v4[0]),
        py + sixth * (vy + 2.0 * (v2[1] + v3[1]) + v4[1]),
        pz + sixth * (vz + 2.0 * (v2[2] + v3[2]) + v4[2]),
    )
    v_new = (
        vx + sixth * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0]),
        vy + sixth * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1]),
        vz + sixth * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2]),
    )
    w_new = (
        wx + sixth * (l1[0] + 2.0 * (l2[0] + l3[0]) + l4[0]),
        wy + sixth * (l1[1] + 2.0 * (l2[1] + l3[1]) + l4[1]),
        wz + sixth * (l1[2] + 2.0 * (l2[2] + l3[2]) + l4[2]),
    )
    w_avg = (
        (wx + 2.0 * (w2[0] + w3[0]) + w4[0]) / 6.0,
        (wy + 2.0 * (w2[1] + w3[1]) + w4[1]) / 6.0,
        (wz + 2.0 * (w2[2] + w3[2]) + w4[2]) / 6.0,
    )
    R_new = gram_schmidt3(mat_mul(R9, rodrigues3(scale3(dt, w_avg))))
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
    params = VtolParams(mass=opts["mass"], gravity=opts["gravity"], inertia=opts["inertia"])
    reference = _build_reference(opts["reference"])

    # the controller takes the four bandwidths in the order OPTIONS declares them
    controller = VtolController(params, reference, scenario.dt, *scenario.controller.values())

    p = reference.position(0.0) if opts["p0"] is None else opts["p0"]
    v = reference.velocity(0.0) if opts["v0"] is None else opts["v0"]
    R9 = so3.IDENTITY9
    w = (0.0, 0.0, 0.0)

    m, g = params.mass, params.gravity
    J9 = params.inertia
    Jinv9 = inv3(J9)
    d_f_eval = _triple_sampler(scenario.disturbance.get("force"))
    d_tau_eval = _triple_sampler(scenario.disturbance.get("torque"))

    dt = scenario.dt
    n_steps = scenario.n_steps
    decimation = scenario.decimation
    noise = (None if scenario.noise.silent
             else noise_table(scenario.noise, noise_channels(scenario), n_steps + 1))

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
    except LumpedPidError as exc:
        exc.at(k, t)
        raise
    return rec.build()

