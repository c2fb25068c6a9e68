"""Flat 3x3 helpers of the VTOL run: norm, R^T R products, determinant,
inverse and orthonormality error.

The helpers take and return Python floats: tuples for 3-vectors, flat
row-major 9-tuples for matrices. Array dispatch overhead on 3x3 operations is
what pushed the rigid-body runs past their time budget, and ``np.float64``
elements would turn every product into a numpy-scalar operation, several
times slower, with the same results. The rigid-body step writes its
Rodrigues exponentials and Gram-Schmidt cleanup inline
(:func:`lumped_pid.plants.vtol.advance_rigid_body`).
"""

from __future__ import annotations

import math

IDENTITY9 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def norm3(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


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


def ortho_error3(m):
    """Frobenius norm of m^T m - I."""
    g = mat_tmul(m, m)
    acc = 0.0
    for i in range(9):
        d = g[i] - IDENTITY9[i]
        acc += d * d
    return math.sqrt(acc)
