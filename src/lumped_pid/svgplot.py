"""Tiny dependency-free SVG line plots.

Plots are a viewing convenience; CSV files are the source of truth. Output is
a pure function of the data so re-running a command never changes the bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 48  # margins
_TICKS = 5  # at most this many tick intervals per axis


def _ticks(lo: float, hi: float) -> list[float]:  # line_plot_svg gives lo < hi
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / _TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= _TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return out


def line_plot_svg(x: Sequence[float], series: dict[str, Sequence[float]],
                  title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    xs = [float(v) for v in x]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(min(float(v) for v in ys) for ys in series.values())
    y_hi = max(max(float(v) for v in ys) for ys in series.values())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + pw * (v - x_lo) / (x_hi - x_lo)

    def py(v):
        return _MT + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

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

    for i, (name, ys) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(xv):.2f},{py(float(yv)):.2f}" for xv, yv in zip(xs, ys))
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
    with open(path, "w") as fh:
        fh.write(line_plot_svg(x, series, title, xlabel, ylabel))
