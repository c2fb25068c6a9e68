"""Real polynomials and rational transfer functions.

Coefficients are stored in ascending degree: ``coeffs[i]`` multiplies ``s**i``.
This keeps index ``i`` aligned with the power of ``s`` and matches Horner
evaluation. All types are immutable; operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, PoleHitError

# Denominator magnitude below this is treated as a pole hit. This only guards
# a literal division blow-up; callers choose frequency grids away from poles.
POLE_EPS = 1e-300

# Synthesis order cap; binomials are computed in exact integer arithmetic.
MAX_ORDER = 20


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial, ascending degree.

    The zero polynomial is represented as ``(0.0,)``. For nonzero polynomials
    the leading (last) coefficient is nonzero and ``degree == len(coeffs) - 1``.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        cs = [float(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s: complex) -> complex:
        """Evaluate at a (possibly complex) point via Horner's scheme."""
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc


@dataclass(frozen=True)
class RationalTransferFunction:
    """Proper ratio of two real polynomials."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero:
            raise ConfigError("transfer function denominator is identically zero")
        if self.numerator.degree > self.denominator.degree and not self.numerator.is_zero:
            raise ConfigError(
                "improper transfer function: deg(num)=%d > deg(den)=%d"
                % (self.numerator.degree, self.denominator.degree)
            )


@dataclass(frozen=True)
class ComplexResponse:
    """One frequency-response sample: |G(jw)| and arg G(jw)."""

    frequency: float
    magnitude: float
    phase: float  # radians, in (-pi, pi]


def binomial_poly(omega: float, n: int) -> Polynomial:
    """Expansion of (s + omega)**n.

    The coefficient of ``s**(n-i)`` is ``C(n, i) * omega**i``; binomials come
    from exact integer arithmetic (no factorial overflow up to MAX_ORDER).
    """
    if n < 1 or n > MAX_ORDER:
        raise ConfigError(f"order n must be in [1, {MAX_ORDER}], got {n}")
    if not (omega > 0.0):
        raise ConfigError(f"bandwidth omega must be positive, got {omega}")
    # ascending: coeffs[k] multiplies s^k, i.e. i = n - k
    return Polynomial(float(math.comb(n, n - k)) * omega ** (n - k) for k in range(n + 1))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Convolution product of two polynomials."""
    out = [0.0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Polynomial(out)


def evaluate_at(tf: RationalTransferFunction, s: complex) -> complex:
    """num(s)/den(s) via complex Horner evaluation.

    Raises PoleHitError when |den(s)| falls below POLE_EPS.
    """
    den = tf.denominator(s)
    if abs(den) < POLE_EPS:
        raise PoleHitError(f"denominator magnitude {abs(den):g} below {POLE_EPS:g} at s={s}")
    return tf.numerator(s) / den


def dc_gain(tf: RationalTransferFunction) -> float:
    """Gain at s=0.

    Returns ``math.inf`` when den(0)=0 with num(0) nonzero, and ``math.nan``
    (indeterminate) when both vanish; no pole/zero cancellation is attempted.
    """
    n0 = tf.numerator.coeffs[0]
    d0 = tf.denominator.coeffs[0]
    if d0 == 0.0:
        return math.nan if n0 == 0.0 else math.inf
    return n0 / d0


def frequency_response(tf: RationalTransferFunction, freqs: Sequence[float]) -> list[ComplexResponse]:
    """Evaluate on an s = jw grid. Frequencies must be positive and ascending."""
    prev = 0.0
    rows = []
    for w in freqs:
        if not (w > prev):
            raise ConfigError("frequency grid must be positive and strictly ascending")
        prev = w
        val = evaluate_at(tf, 1j * w)
        rows.append(ComplexResponse(frequency=w, magnitude=abs(val), phase=cmath.phase(val)))
    return rows


def log_grid(w_lo: float, w_hi: float, points_per_decade: int = 50) -> list[float]:
    """Logarithmic frequency grid over ``0 < w_lo < w_hi``, endpoints included."""
    if points_per_decade < 1:
        raise ConfigError(f"points per decade: must be >= 1, got {points_per_decade}")
    n = max(2, int(round(math.log10(w_hi / w_lo) * points_per_decade)) + 1)
    step = (math.log10(w_hi) - math.log10(w_lo)) / (n - 1)
    return [10.0 ** (math.log10(w_lo) + k * step) for k in range(n)]

