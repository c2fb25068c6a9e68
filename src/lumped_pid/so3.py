"""Minimal SO(3) kinematics: Rodrigues exponential, Gram-Schmidt.

The helpers take and return Python floats: tuples for 3-vectors, flat
row-major 9-tuples for matrices. Array dispatch overhead on 3x3 operations is
what pushed the rigid-body runs past their time budget, and ``np.float64``
elements would turn every product into a numpy-scalar operation, several
times slower, with the same results.
"""

from __future__ import annotations

import math

IDENTITY9 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def norm3(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


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


def mat_tmul(a, b):
    """a^T b."""
    return (
        a[0] * b[0] + a[3] * b[3] + a[6] * b[6],
        a[0] * b[1] + a[3] * b[4] + a[6] * b[7],
        a[0] * b[2] + a[3] * b[5] + a[6] * b[8],
        a[1] * b[0] + a[4] * b[3] + a[7] * b[6],
        a[1] * b[1] + a[4] * b[4] + a[7] * b[7],
        a[1] * b[2] + a[4] * b[5] + a[7] * b[8],
        a[2] * b[0] + a[5] * b[3] + a[8] * b[6],
        a[2] * b[1] + a[5] * b[4] + a[8] * b[7],
        a[2] * b[2] + a[5] * b[5] + a[8] * b[8],
    )


def det3(m):
    return (
        m[0] * (m[4] * m[8] - m[5] * m[7])
        - m[1] * (m[3] * m[8] - m[5] * m[6])
        + m[2] * (m[3] * m[7] - m[4] * m[6])
    )


def inv3(m):
    """Closed-form 3x3 inverse via the adjugate."""
    inv_d = 1.0 / det3(m)  # ZeroDivisionError if singular
    return (
        (m[4] * m[8] - m[5] * m[7]) * inv_d,
        (m[2] * m[7] - m[1] * m[8]) * inv_d,
        (m[1] * m[5] - m[2] * m[4]) * inv_d,
        (m[5] * m[6] - m[3] * m[8]) * inv_d,
        (m[0] * m[8] - m[2] * m[6]) * inv_d,
        (m[2] * m[3] - m[0] * m[5]) * inv_d,
        (m[3] * m[7] - m[4] * m[6]) * inv_d,
        (m[1] * m[6] - m[0] * m[7]) * inv_d,
        (m[0] * m[4] - m[1] * m[3]) * inv_d,
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


def ortho_error3(m):
    """Frobenius norm of m^T m - I."""
    g = mat_tmul(m, m)
    acc = 0.0
    for i in range(9):
        d = g[i] - IDENTITY9[i]
        acc += d * d
    return math.sqrt(acc)
