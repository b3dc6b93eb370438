"""Minimal self-contained SVG line charts for simulation output.

No plotting dependency: charts are assembled as plain SVG text so runs can
emit figures in headless environments and the files diff cleanly.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
]

_W, _H = 640, 220
_ML, _MR, _MT, _MB = 55, 120, 28, 30


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    # integer multiples of step: an accumulated sum stalls once step is
    # below the float resolution at lo
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-12)
    return [round(k * step, 12) for k in range(first, last + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _panel(title, times, series, labels, y0):
    """One chart panel as a list of SVG elements offset to y0."""
    finite = np.asarray(series, dtype=float)
    mask = np.isfinite(finite)
    lo = float(finite[mask].min()) if mask.any() else 0.0
    hi = float(finite[mask].max()) if mask.any() else 1.0
    # flat up to rounding (a few ulps apart) carries no distinct ticks
    if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    t0, t1 = float(times[0]), float(times[-1])

    def sx(t):
        return _ML + (t - t0) / (t1 - t0) * (_W - _ML - _MR)

    def sy(v):
        return y0 + _MT + (hi - v) / (hi - lo) * (_H - _MT - _MB)

    parts = [
        f'<text x="{_ML}" y="{y0 + 18}" font-size="13" font-weight="bold">{title}</text>',
        f'<rect x="{_ML}" y="{y0 + _MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#999"/>',
    ]
    for v in _ticks(lo, hi):
        if lo <= v <= hi:
            y = sy(v)
            parts.append(
                f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
                'stroke="#e0e0e0"/>'
            )
            parts.append(
                f'<text x="{_ML - 6}" y="{y + 4:.1f}" font-size="10" '
                f'text-anchor="end">{_fmt(v)}</text>'
            )
    for v in _ticks(t0, t1):
        if t0 <= v <= t1:
            x = sx(v)
            parts.append(
                f'<text x="{x:.1f}" y="{y0 + _H - _MB + 14}" font-size="10" '
                f'text-anchor="middle">{_fmt(v)}</text>'
            )
    # sx and sy applied to whole arrays; each x is formatted once per
    # panel into a "x,%.2f" template that one % per polyline fills with y
    rows = np.atleast_2d(finite)
    xs = [f"{x:.2f},%.2f" for x in sx(np.asarray(times, dtype=float)).tolist()]
    for k, (lab, values, y_row) in enumerate(zip(labels, rows, sy(rows))):
        color = _PALETTE[k % len(_PALETTE)]
        keep = np.isfinite(values)
        if keep.any():
            template = " ".join(compress(xs, keep.tolist()))
            parts.append(
                f'<polyline points="{template % tuple(y_row[keep].tolist())}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = y0 + _MT + 14 * k
        parts.append(
            f'<line x1="{_W - _MR + 8}" y1="{ly + 6}" x2="{_W - _MR + 26}" '
            f'y2="{ly + 6}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR + 30}" y="{ly + 10}" font-size="10">{lab}</text>'
        )
    return parts


def trajectory_chart(times, shares, tech_growth, sector_growth) -> str:
    """Three stacked panels (shares, per-technology growth, sector growth)
    as one standalone SVG document."""
    n = shares.shape[1]
    tech_labels = [f"tech {i + 1}" for i in range(n)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{3 * _H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{3 * _H}" fill="white"/>',
    ]
    parts += _panel("Scientist shares", times, shares.T, tech_labels, 0)
    parts += _panel("Technology growth rates", times, tech_growth.T, tech_labels, _H)
    parts += _panel("Sector growth rate", times, sector_growth[None, :], ["g_YL"], 2 * _H)
    parts.append("</svg>")
    return "\n".join(parts)
