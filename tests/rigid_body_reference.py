"""The VTOL rigid body as helper functions: its model's two derivative
halves, the SO(3) exponential and Gram-Schmidt on flat 9-tuples, and the
RK4 step composed from them. ``plants.vtol.advance_rigid_body`` writes the
same operations in the same order as one straight-line function; these are
the references it is checked against, bit for bit."""

import math


def thrust_accel(n, f, inv_m, g, d_f):
    """v_dot = g e3 + (d_f - f n) / m, with ``inv_m = 1/m`` and the force
    disturbance value ``d_f``. The attitude enters only through the thrust
    axis n = R e3."""
    return ((-f * n[0] + d_f[0]) * inv_m, (-f * n[1] + d_f[1]) * inv_m,
            g + (-f * n[2] + d_f[2]) * inv_m)


def body_accel(w, tau, J9, Jinv9, d_tau):
    """omega_dot = J^-1 (tau - omega x (J omega) + d_tau), for the flat
    inertia ``J9``, its inverse ``Jinv9`` and the torque disturbance value
    ``d_tau``."""
    wx, wy, wz = w
    J0, J1, J2, J3, J4, J5, J6, J7, J8 = J9
    K0, K1, K2, K3, K4, K5, K6, K7, K8 = Jinv9
    jx = J0 * wx + J1 * wy + J2 * wz
    jy = J3 * wx + J4 * wy + J5 * wz
    jz = J6 * wx + J7 * wy + J8 * wz
    ux = tau[0] - (wy * jz - wz * jy) + d_tau[0]
    uy = tau[1] - (wz * jx - wx * jz) + d_tau[1]
    uz = tau[2] - (wx * jy - wy * jx) + d_tau[2]
    return (K0 * ux + K1 * uy + K2 * uz, K3 * ux + K4 * uy + K5 * uz,
            K6 * ux + K7 * uy + K8 * uz)


def mat_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[3] + a[2] * b[6],
        a[0] * b[1] + a[1] * b[4] + a[2] * b[7],
        a[0] * b[2] + a[1] * b[5] + a[2] * b[8],
        a[3] * b[0] + a[4] * b[3] + a[5] * b[6],
        a[3] * b[1] + a[4] * b[4] + a[5] * b[7],
        a[3] * b[2] + a[4] * b[5] + a[5] * b[8],
        a[6] * b[0] + a[7] * b[3] + a[8] * b[6],
        a[6] * b[1] + a[7] * b[4] + a[8] * b[7],
        a[6] * b[2] + a[7] * b[5] + a[8] * b[8],
    )


def _exp_coeffs(phi2):
    """sin(phi)/phi and (1-cos(phi))/phi^2 for phi^2 = |r|^2.

    Series fallback below ~1e-6 rad keeps the small-angle factors accurate.
    """
    phi = math.sqrt(phi2)
    if phi < 1e-6:
        return 1.0 - phi2 / 6.0, 0.5 - phi2 / 24.0
    return math.sin(phi) / phi, (1.0 - math.cos(phi)) / phi2


def rodrigues3(r):
    """exp(hat(r)) for a rotation vector r = omega * dt."""
    x, y, z = r
    a, b = _exp_coeffs(x * x + y * y + z * z)
    # I + a*hat(r) + b*hat(r)^2
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return (
        1.0 - b * (yy + zz), b * xy - a * z, b * xz + a * y,
        b * xy + a * z, 1.0 - b * (xx + zz), b * yz - a * x,
        b * xz - a * y, b * yz + a * x, 1.0 - b * (xx + yy),
    )


def rodrigues_e3(r):
    """exp(hat(r)) e3, the third column of ``rodrigues3(r)``, bit for bit."""
    x, y, z = r
    a, b = _exp_coeffs(x * x + y * y + z * z)
    return (b * (x * z) + a * y, b * (y * z) - a * x, 1.0 - b * (x * x + y * y))


def gram_schmidt3(m):
    """Re-orthonormalize columns; the third column is rebuilt as a cross
    product so the result has determinant +1."""
    m0, m1, _, m3, m4, _, m6, m7, _ = m
    s = 1.0 / math.sqrt(m0 * m0 + m3 * m3 + m6 * m6)
    x0, y0, z0 = s * m0, s * m3, s * m6  # b0, the first column normalized
    d = x0 * m1 + y0 * m4 + z0 * m7
    cx, cy, cz = m1 - d * x0, m4 - d * y0, m7 - d * z0  # the second, less its b0 part
    s = 1.0 / math.sqrt(cx * cx + cy * cy + cz * cz)
    x1, y1, z1 = s * cx, s * cy, s * cz
    # b2 = b0 x b1
    return (x0, x1, y0 * z1 - z0 * y1, y0, y1, z0 * x1 - x0 * z1, z0, z1, x0 * y1 - y0 * x1)


def reference_step(p, v, R9, w, f, tau, t, dt, mass, g, J9, Jinv9, d_f_eval, d_tau_eval):
    """advance_rigid_body as it was written before it became straight-line
    code: RK4 on (p, v, omega) with each stage's derivative thrust_accel plus
    body_accel, the stages carrying only the thrust axis R e3 of each stage
    rotation (stages 2 and 3 share the midpoint one, and so one v_dot), then
    the full-step exponential of the RK4-averaged omega and Gram-Schmidt."""
    half = 0.5 * dt
    inv_m = 1.0 / mass
    df0, df_m, df1 = d_f_eval(t), d_f_eval(t + half), d_f_eval(t + dt)
    dt0, dt_m, dt1 = d_tau_eval(t), d_tau_eval(t + half), d_tau_eval(t + dt)
    px, py, pz = p
    vx, vy, vz = v
    wx, wy, wz = w
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = R9

    ex, ey, ez = rodrigues_e3((half * wx, half * wy, half * wz))
    n_mid = (r0 * ex + r1 * ey + r2 * ez, r3 * ex + r4 * ey + r5 * ez, r6 * ex + r7 * ey + r8 * ez)
    ex, ey, ez = rodrigues_e3((dt * wx, dt * wy, dt * wz))
    n_end = (r0 * ex + r1 * ey + r2 * ez, r3 * ex + r4 * ey + r5 * ez, r6 * ex + r7 * ey + r8 * ez)

    a1x, a1y, a1z = thrust_accel((r2, r5, r8), f, inv_m, g, df0)
    l1x, l1y, l1z = body_accel(w, tau, J9, Jinv9, dt0)
    a2x, a2y, a2z = thrust_accel(n_mid, f, inv_m, g, df_m)  # also stage 3's a3
    w2x, w2y, w2z = wx + half * l1x, wy + half * l1y, wz + half * l1z
    l2x, l2y, l2z = body_accel((w2x, w2y, w2z), tau, J9, Jinv9, dt_m)
    w3x, w3y, w3z = wx + half * l2x, wy + half * l2y, wz + half * l2z
    l3x, l3y, l3z = body_accel((w3x, w3y, w3z), tau, J9, Jinv9, dt_m)
    w4x, w4y, w4z = wx + dt * l3x, wy + dt * l3y, wz + dt * l3z
    a4x, a4y, a4z = thrust_accel(n_end, f, inv_m, g, df1)
    l4x, l4y, l4z = body_accel((w4x, w4y, w4z), tau, J9, Jinv9, dt1)

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
    R_new = gram_schmidt3(mat_mul(R9, rodrigues3((
        dt * ((wx + 2.0 * (w2x + w3x) + w4x) / 6.0),
        dt * ((wy + 2.0 * (w2y + w3y) + w4y) / 6.0),
        dt * ((wz + 2.0 * (w2z + w3z) + w4z) / 6.0),
    ))))
    return p_new, v_new, R_new, w_new
