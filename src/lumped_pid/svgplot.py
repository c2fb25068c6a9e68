"""SVG line plots, rendered from numpy arrays.

Plots are a viewing convenience; CSV files are the source of truth. Output is
a pure function of the data so re-running a command never changes the bytes.

A polyline's ``points`` text is made for a whole series at once. Its
coordinates are computed elementwise with the same float operations, in the
same order, as a point-by-point mapping, and each is printed as the exact
text of ``'%.2f' %``: :func:`_points_text` rounds v * 100 to an integer
correctly (ties to even), then gathers that integer's text from tables of
8-byte words, one word per coordinate.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Sequence

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 48  # margins
_TICKS = 5  # at most this many tick intervals per axis
_FMAX = sys.float_info.max
# a span below this has a subnormal tick step, which can round to 0
_NARROW = _TICKS * sys.float_info.min
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _ticks(lo: float, hi: float) -> list[float]:  # line_plot_svg gives lo < hi
    """At most _TICKS + 1 increasing ticks from lo to hi, a step of 1, 2 or 5
    times a power of 10 apart. They end where adding the step leaves a tick
    unchanged, as it does when the step is below half the values' rounding unit."""
    span = hi - lo
    if not math.isfinite(hi + 1e-12 * span):  # the span or the last tick overflows
        return [2.0 * v for v in _ticks(0.5 * lo, 0.5 * hi)]
    step = 10.0 ** math.floor(math.log10(span / _TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= _TICKS:
            step *= mult
            break
    out, v, last = [], math.ceil(lo / step) * step, None
    while v != last and v <= hi + 1e-12 * span and len(out) <= _TICKS:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v, last = v + step, v
    return out


@functools.cache
def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 8-byte words whose OR is a coordinate's text: for its integer part
    i < 10**4, i right-aligned in bytes 0-3 with its leading zeros NUL; for
    its hundredths f, ``.ff`` in bytes 4-6 and, in byte 7, a ``,`` after an
    x (column 0) or a space after a y (column 1)."""
    # int16 temporaries: int64 ones raised the process's peak RSS by 1.2 MB
    i = np.arange(10**4, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], np.int16)
    ints = np.zeros((10**4, 8), np.uint8)
    ints[:, :4] = np.where((i >= places) | (places == 1), i // places % 10 + ord("0"), 0)
    f = np.arange(100)[:, None]
    fracs = np.zeros((100, 2, 8), np.uint8)
    fracs[..., 4] = ord(".")
    fracs[..., 5] = f // 10 + ord("0")
    fracs[..., 6] = f % 10 + ord("0")
    fracs[..., 7] = (ord(","), ord(" "))
    return ints.view(np.uint64).ravel(), fracs.view(np.uint64)[..., 0]


def _points_text(px: np.ndarray, py: np.ndarray) -> str:
    """``" ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))``, for
    coordinates in [0, 9999.995), whose text has at most four integer digits,
    as every point in the view box has."""
    v = np.column_stack((px, py))
    assert ((v >= 0.0) & (v < 9999.995)).all(), "a coordinate outside [0, 9999.995)"
    q = v * 100.0
    r = np.rint(q)
    # q + e is v * 100 exactly: the products of 100 (7 bits) with v's
    # Veltkamp halves are exact, and so are the differences
    split = _VELTKAMP * v
    high = split - (split - v)
    e = (high * 100.0 - q) + (v - high) * 100.0
    # rint(q) is v * 100 correctly rounded unless q is half way between two
    # integers; there the sign of e gives the side v * 100 is on, and a true
    # tie (e == 0) keeps rint's even neighbour, as '%.2f' does
    r = np.where((np.abs(q - r) == 0.5) & (e != 0.0), q + np.copysign(0.5, e), r)
    ints, fracs = _word_tables()
    whole, hundredths = np.divmod(r.astype(np.int64), 100)
    words = ints[whole] | fracs[hundredths, (0, 1)]
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def line_plot_svg(x: Sequence[float], series: dict[str, Sequence[float]],
                  title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """The plot of each series over ``x``, its range and lines drawn from the
    samples whose x and y are both finite; the x range spans the finite x.
    A series without such a sample (an estimate a controller does not make)
    has no line and no legend entry; at least one series must have one, and
    ``x`` a finite value, or it is a ``ValueError``."""
    xs = np.asarray(x, dtype=np.float64)
    x_finite = np.isfinite(xs)
    if not x_finite.any():
        raise ValueError("x has no finite sample")
    lines = {}  # by series name, the (x, y) arrays of its finite samples
    for name, ys in series.items():
        ys = np.asarray(ys, dtype=np.float64)[:len(xs)]
        keep = x_finite[:len(ys)] & np.isfinite(ys)
        if keep.any():
            lines[name] = xs[:len(ys)][keep], ys[keep]
    if not lines:
        raise ValueError("no series has a finite sample")
    x_lo, x_hi = float(xs[x_finite].min()), float(xs[x_finite].max())
    y_lo = min(float(ys.min()) for _, ys in lines.values())
    y_hi = max(float(ys.max()) for _, ys in lines.values())
    # a constant or subnormal-span range is widened by 1.0, or by |v| / 2**20
    # where that is more, so that its ticks step past the rounding of v;
    # never past _FMAX
    if y_hi - y_lo < _NARROW:
        pad = max(1.0, abs(y_lo) * 2.0**-20)
        y_lo, y_hi = max(y_lo - pad, -_FMAX), min(y_hi + pad, _FMAX)
    if x_hi - x_lo < _NARROW:
        pad = max(1.0, abs(x_lo) * 2.0**-20)
        x_lo, x_hi = (x_lo, x_lo + pad) if x_lo + pad <= _FMAX else (x_lo - pad, x_lo)

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    # each axis maps k v with k = 2**-12, exact for a normal v, which keeps
    # pw (v - lo) and the span finite up to the float limit; px and py map a
    # float or, elementwise with the same operations, an array
    k = 2.0**-12
    x0, x_span = k * x_lo, k * x_hi - k * x_lo
    y0, y_span = k * y_lo, k * y_hi - k * y_lo

    def px(v):
        return _ML + pw * (k * v - x0) / x_span

    def py(v):
        return _MT + ph * (1.0 - (k * v - y0) / y_span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{_MT}" x2="{px(tx):.2f}" '
                     f'y2="{_MT + ph}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{tx:.6g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML}" y1="{py(ty):.2f}" x2="{_ML + pw}" '
                     f'y2="{py(ty):.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{ty:.6g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
                 f'stroke="#333333"/>')

    for i, (name, (xv, yv)) in enumerate(lines.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = _points_text(px(xv), py(yv))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + pw - 120}" y1="{ly - 4}" x2="{_ML + pw - 96}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 90}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{name}</text>')

    parts.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {_MT + ph / 2:.1f})">'
                 f'{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_line_plot(path, x, series, title="", xlabel="", ylabel=""):
    """Write :func:`line_plot_svg` to ``path``; the plot is rendered first,
    so a plot that fails writes no file."""
    svg = line_plot_svg(x, series, title, xlabel, ylabel)
    with open(path, "w") as fh:
        fh.write(svg)
