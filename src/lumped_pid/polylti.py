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

from .errors import ConfigError, PoleHitError, check_positive

# Denominator magnitude below this is treated as a pole hit. This only guards
# a literal division blow-up; callers choose frequency grids away from poles.
POLE_EPS = 1e-300

# Synthesis order cap; binomials are computed in exact integer arithmetic.
MAX_ORDER = 20

# Frequency grid cap: log_grid builds its points as one list.
MAX_GRID_POINTS = 10**6


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
    from exact integer arithmetic (no factorial overflow up to MAX_ORDER). A
    coefficient beyond the float range, or one that rounds to 0, is a
    ConfigError, as is an order ``n`` that is not an int (a bool is not) in
    [1, MAX_ORDER].
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
        raise ConfigError(f"order n must be an integer in [1, {MAX_ORDER}], got {n!r}")
    check_positive(omega, "omega")
    try:
        # ascending: coeffs[k] multiplies s^k, i.e. i = n - k
        coeffs = [float(math.comb(n, n - k)) * omega ** (n - k) for k in range(n + 1)]
    except OverflowError:  # a power of omega past the float range
        coeffs = [math.inf]
    check_coeffs(coeffs, f"omega = {omega!r} at order {n}: (s + omega)**{n}")
    return Polynomial(coeffs)


def check_coeffs(coeffs: Sequence[float], poly: str) -> None:
    """A ConfigError naming ``poly`` unless each of its ``coeffs`` is finite
    and nonzero; a nonzero subnormal passes."""
    if not all(map(math.isfinite, coeffs)):
        raise ConfigError(f"{poly} has a coefficient beyond the float range")
    if 0.0 in coeffs:
        raise ConfigError(f"{poly} has a coefficient that rounds to 0, below the float range")


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Convolution product of two polynomials."""
    out = [0.0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Polynomial(out)


def evaluate_at(tf: RationalTransferFunction, s: complex) -> complex:
    """num(s)/den(s) via complex Horner evaluation.

    Raises PoleHitError when |den(s)| falls below POLE_EPS, and ConfigError
    when |den(s)| or the value's modulus is not finite (Horner's powers of a
    large s overflow). Moduli are ``math.hypot``'s, which overflow to inf
    where ``abs`` of a complex raises.
    """
    den = tf.denominator(s)
    size = math.hypot(den.real, den.imag)
    if size < POLE_EPS:
        raise PoleHitError(f"denominator magnitude {size:g} below {POLE_EPS:g} at s={s}")
    value = tf.numerator(s) / den
    if not (size < math.inf and math.hypot(value.real, value.imag) < math.inf):
        raise ConfigError(f"transfer function at s={s}: a value beyond the float range")
    return value


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
    """Logarithmic frequency grid over ``0 < w_lo < w_hi``, endpoints included.
    Ends outside that range, infinite ones too, or a point count that is not
    finite or above MAX_GRID_POINTS, are a ConfigError."""
    if points_per_decade < 1:
        raise ConfigError(f"points per decade: must be >= 1, got {points_per_decade}")
    if not 0.0 < w_lo < w_hi < math.inf:
        raise ConfigError(f"frequency grid: needs finite ends 0 < w_lo < w_hi, "
                          f"got {w_lo:g} to {w_hi:g}")
    try:
        count = math.log10(w_hi / w_lo) * points_per_decade
    except OverflowError:  # an int points_per_decade past the float range
        count = math.inf
    if not math.isfinite(count):
        raise ConfigError(f"frequency grid: the point count from {w_lo:g} to {w_hi:g} "
                          f"at the given points per decade is not finite")
    n = max(2, int(round(count)) + 1)
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"frequency grid: {n} points from {w_lo:g} to {w_hi:g}, "
                          f"more than the {MAX_GRID_POINTS} a grid may hold")
    step = (math.log10(w_hi) - math.log10(w_lo)) / (n - 1)
    return [10.0 ** (math.log10(w_lo) + k * step) for k in range(n)]

