"""Tiny dependency-free SVG line plots.

Plots are a viewing convenience; CSV files are the source of truth. Output is
a pure function of the data so re-running a command never changes the bytes.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 48  # margins
_TICKS = 5  # at most this many tick intervals per axis
_FMAX = sys.float_info.max
# a span below this has a subnormal tick step, which can round to 0
_NARROW = _TICKS * sys.float_info.min


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


def line_plot_svg(x: Sequence[float], series: dict[str, Sequence[float]],
                  title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """The plot of each series over ``x``, its range and lines drawn from the
    finite samples only; a series without one (an estimate a controller does
    not make) has no line and no legend entry, and at least one series must
    have one."""
    xs = [float(v) for v in x]
    lines = {}  # by series name, its finite (x, y) points
    for name, ys in series.items():
        points = [(xv, yv) for xv, yv in zip(xs, map(float, ys)) if math.isfinite(yv)]
        if points:
            lines[name] = points
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(yv for points in lines.values() for _, yv in points)
    y_hi = max(yv for points in lines.values() for _, yv in points)
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
    # pw (v - lo) and the span finite up to the float limit
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

    for i, (name, points) in enumerate(lines.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in points)
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
