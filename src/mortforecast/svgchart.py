"""Minimal deterministic SVG line charts.

No plotting dependency: the output is a standalone SVG string whose
bytes depend only on the input, so chart artifacts can be diffed and
asserted on in tests.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = ["render_line_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 24
_MARGIN_TOP = 44
_MARGIN_BOTTOM = 52


def _fmt_num(v: float) -> str:
    if abs(v - round(v)) < 1e-9 and abs(v) < 1e15:
        return str(int(round(v)))
    return format(v, ".6g")


def _fmt_coord(v: float) -> str:
    return format(v, ".2f")


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * power >= raw:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Interior ticks on a 1/2/5 grid plus both endpoints, so the label
    range always covers the data range."""
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo, target)
    ticks = [lo]
    t = math.ceil(lo / step) * step
    while t < hi:
        # keep clear of the endpoint labels
        if t - lo > 0.4 * step and hi - t > 0.4 * step:
            ticks.append(t)
        t += step
    ticks.append(hi)
    return ticks


def _data_range(arrays: list[np.ndarray]) -> tuple[float, float]:
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    return lo, hi


def render_line_chart(
    series: Sequence[tuple],
    xlabel: str,
    ylabel: str,
    title: Optional[str] = None,
) -> str:
    """Render (label, xs, ys) series to an SVG string, 720 x 480 pixels."""
    if len(series) == 0:
        raise ValueError("need at least one series")
    cleaned = []
    for entry in series:
        label, xs, ys = entry
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or len(xs) == 0:
            raise ValueError(f"series {label!r}: x and y must be equal-length 1-d")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError(f"series {label!r}: non-finite values")
        cleaned.append((str(label), xs, ys))

    xlo, xhi = _data_range([xs for _, xs, _ in cleaned])
    ylo, yhi = _data_range([ys for _, _, ys in cleaned])

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # a value's pixel coordinate, or an array's elementwise: the same IEEE
    # operations in the same order, so ticks and polylines round alike
    def sx(v):
        return _MARGIN_LEFT + (v - xlo) / (xhi - xlo) * plot_w

    def sy(v):
        return _MARGIN_TOP + plot_h - (v - ylo) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="#000000" stroke-width="1"/>'
    )

    for t in _ticks(xlo, xhi):
        px = sx(t)
        parts.append(
            f'<line x1="{_fmt_coord(px)}" y1="{axis_y}" x2="{_fmt_coord(px)}" '
            f'y2="{axis_y + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt_coord(px)}" y="{axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt_num(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        py = sy(t)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{_fmt_coord(py)}" x2="{_MARGIN_LEFT}" '
            f'y2="{_fmt_coord(py)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{_fmt_coord(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt_num(t)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.0f})">'
        f'{_escape(ylabel)}</text>'
    )

    for idx, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(map("{:.2f},{:.2f}".format, sx(xs).tolist(), sy(ys).tolist()))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )

    legend_x = _MARGIN_LEFT + plot_w - 150
    for idx, (label, _, _) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        ly = _MARGIN_TOP + 8 + 16 * idx
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
