"""Minimal deterministic SVG charts.

The analysis stage emits static figures; byte-stable output across runs
is part of its contract, so the SVG is written directly with fixed
float formatting instead of going through a plotting library (which
embeds timestamps and generated ids).  Log-scale bars and a log-log
scatter cover everything the reports need.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

_WIDTH = 960
_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 170

_BAR_FILL = "#4878a8"
_ACCENT_FILL = "#c44e52"
_AXIS = "#333333"
_GRID = "#dddddd"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Svg:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke=_AXIS, width=1.0, dash: str = ""):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}"/>'
        )

    def circle(self, cx, cy, r, fill):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def text(self, x, y, content, size=11, anchor="start", rotate: Optional[float] = None):
        transform = (
            f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate is not None else ""
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="{size}" '
            f'fill="{_AXIS}" text-anchor="{anchor}"{transform}>{_esc(content)}</text>'
        )

    def write(self, path: Path | str):
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts) + "\n")


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def _tick_label(value: float) -> str:
    return f"{value:g}"


def log_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    path: Path | str,
    title: str,
    y_label: str,
    highlight: Optional[Sequence[bool]] = None,
) -> None:
    """Vertical bars on a log10 y-axis; bars start at the bottom decade."""
    if not values or min(values) <= 0:
        raise ValueError("log bar chart needs positive values")
    svg = _Svg(_WIDTH, _HEIGHT)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    ticks = _log_ticks(min(values), max(values))
    lo, hi = math.log10(ticks[0]), math.log10(ticks[-1])

    def y_of(v: float) -> float:
        frac = (math.log10(v) - lo) / (hi - lo) if hi > lo else 0.5
        return _MARGIN_TOP + plot_h * (1 - frac)

    svg.text(_WIDTH / 2, 20, title, size=14, anchor="middle")
    for tick in ticks:
        y = y_of(tick)
        svg.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, stroke=_GRID)
        svg.text(_MARGIN_LEFT - 6, y + 4, _tick_label(tick), anchor="end")
    svg.text(14, _MARGIN_TOP + plot_h / 2, y_label, anchor="middle", rotate=-90.0)

    n = len(values)
    slot = plot_w / n
    bar_w = slot * 0.7
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN_LEFT + i * slot + (slot - bar_w) / 2
        y = y_of(value)
        fill = _ACCENT_FILL if highlight is not None and highlight[i] else _BAR_FILL
        svg.rect(x, y, bar_w, _MARGIN_TOP + plot_h - y, fill)
        svg.text(
            x + bar_w / 2,
            _MARGIN_TOP + plot_h + 12,
            label,
            size=10,
            anchor="end",
            rotate=-45.0,
        )
    svg.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, _MARGIN_TOP + plot_h)
    svg.line(_MARGIN_LEFT, _MARGIN_TOP + plot_h, _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP + plot_h)
    svg.write(path)


def loglog_scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    labels: Sequence[str],
    path: Path | str,
    title: str,
    x_label: str,
    y_label: str,
    parity_line: bool = True,
) -> None:
    """Scatter on log-log axes; the diagonal marks x == y parity."""
    if not xs or min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log scatter needs positive values")
    svg = _Svg(_WIDTH, _HEIGHT)
    margin_bottom = 60
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - margin_bottom
    ticks_x = _log_ticks(min(xs), max(xs))
    ticks_y = _log_ticks(min(ys), max(ys))
    lo_x, hi_x = math.log10(ticks_x[0]), math.log10(ticks_x[-1])
    lo_y, hi_y = math.log10(ticks_y[0]), math.log10(ticks_y[-1])

    def x_of(v: float) -> float:
        frac = (math.log10(v) - lo_x) / (hi_x - lo_x) if hi_x > lo_x else 0.5
        return _MARGIN_LEFT + plot_w * frac

    def y_of(v: float) -> float:
        frac = (math.log10(v) - lo_y) / (hi_y - lo_y) if hi_y > lo_y else 0.5
        return _MARGIN_TOP + plot_h * (1 - frac)

    svg.text(_WIDTH / 2, 20, title, size=14, anchor="middle")
    for tick in ticks_x:
        x = x_of(tick)
        svg.line(x, _MARGIN_TOP, x, _MARGIN_TOP + plot_h, stroke=_GRID)
        svg.text(x, _MARGIN_TOP + plot_h + 16, _tick_label(tick), anchor="middle")
    for tick in ticks_y:
        y = y_of(tick)
        svg.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, stroke=_GRID)
        svg.text(_MARGIN_LEFT - 6, y + 4, _tick_label(tick), anchor="end")
    svg.text(_WIDTH / 2, _HEIGHT - 16, x_label, anchor="middle")
    svg.text(14, _MARGIN_TOP + plot_h / 2, y_label, anchor="middle", rotate=-90.0)

    if parity_line:
        lo = max(ticks_x[0], ticks_y[0])
        hi = min(ticks_x[-1], ticks_y[-1])
        if hi > lo:
            svg.line(x_of(lo), y_of(lo), x_of(hi), y_of(hi), stroke="#888888", dash="4 3")

    for x, y, label in sorted(zip(xs, ys, labels), key=lambda t: t[2]):
        svg.circle(x_of(x), y_of(y), 4, _BAR_FILL)
        svg.text(x_of(x) + 6, y_of(y) - 4, label, size=8)
    svg.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, _MARGIN_TOP + plot_h)
    svg.line(_MARGIN_LEFT, _MARGIN_TOP + plot_h, _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP + plot_h)
    svg.write(path)
