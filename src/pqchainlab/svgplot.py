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
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT

_BAR_FILL = "#4878a8"
_ACCENT_FILL = "#c44e52"
_AXIS = "#333333"
_GRID = "#dddddd"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _log_scale(values: Sequence[float]):
    """The decades that span ``values``, and the map from a value to its fraction of the
    way from the lowest decade to the highest (0.5 when they are one)."""
    lo_exp = math.floor(math.log10(min(values)))
    hi_exp = math.ceil(math.log10(max(values)))
    ticks = [10.0**e for e in range(lo_exp, hi_exp + 1)]
    lo, hi = math.log10(ticks[0]), math.log10(ticks[-1])
    return ticks, lambda v: (math.log10(v) - lo) / (hi - lo) if hi > lo else 0.5


class _Chart:
    """One chart's SVG elements in drawing order: the title first, the axis lines of the
    ``plot_h``-high plot area last, on :meth:`write`."""

    def __init__(self, title: str, plot_h: int):
        self.plot_h = plot_h
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]
        self.text(_WIDTH / 2, 20, title, size=14, anchor="middle")

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

    def log_y_axis(self, values: Sequence[float], y_label: str, x_label: str = ""):
        """Draw a grid line and tick label per decade of ``values``, the x label if given,
        and the y label; return the decades and the map from a value to its y coordinate."""
        ticks, frac = _log_scale(values)

        def y_of(v: float) -> float:
            return _MARGIN_TOP + self.plot_h * (1 - frac(v))

        for tick in ticks:
            y = y_of(tick)
            self.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, stroke=_GRID)
            self.text(_MARGIN_LEFT - 6, y + 4, f"{tick:g}", anchor="end")
        if x_label:
            self.text(_WIDTH / 2, _HEIGHT - 16, x_label, anchor="middle")
        self.text(14, _MARGIN_TOP + self.plot_h / 2, y_label, anchor="middle", rotate=-90.0)
        return ticks, y_of

    def write(self, path: Path | str):
        bottom = _MARGIN_TOP + self.plot_h
        self.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, bottom)
        self.line(_MARGIN_LEFT, bottom, _WIDTH - _MARGIN_RIGHT, bottom)
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts) + "\n")


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
    chart = _Chart(title, _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM)
    _, y_of = chart.log_y_axis(values, y_label)
    bottom = _MARGIN_TOP + chart.plot_h
    slot = _PLOT_W / len(values)
    bar_w = slot * 0.7
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN_LEFT + i * slot + (slot - bar_w) / 2
        y = y_of(value)
        fill = _ACCENT_FILL if highlight is not None and highlight[i] else _BAR_FILL
        chart.rect(x, y, bar_w, bottom - y, fill)
        chart.text(x + bar_w / 2, bottom + 12, label, size=10, anchor="end", rotate=-45.0)
    chart.write(path)


def loglog_scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    labels: Sequence[str],
    path: Path | str,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Scatter on log-log axes; the diagonal marks x == y parity."""
    if not xs or min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log scatter needs positive values")
    chart = _Chart(title, _HEIGHT - _MARGIN_TOP - 60)
    ticks_x, frac_x = _log_scale(xs)

    def x_of(v: float) -> float:
        return _MARGIN_LEFT + _PLOT_W * frac_x(v)

    for tick in ticks_x:
        x = x_of(tick)
        chart.line(x, _MARGIN_TOP, x, _MARGIN_TOP + chart.plot_h, stroke=_GRID)
        chart.text(x, _MARGIN_TOP + chart.plot_h + 16, f"{tick:g}", anchor="middle")
    ticks_y, y_of = chart.log_y_axis(ys, y_label, x_label)
    lo = max(ticks_x[0], ticks_y[0])
    hi = min(ticks_x[-1], ticks_y[-1])
    if hi > lo:
        chart.line(x_of(lo), y_of(lo), x_of(hi), y_of(hi), stroke="#888888", dash="4 3")
    for x, y, label in sorted(zip(xs, ys, labels), key=lambda t: t[2]):
        chart.circle(x_of(x), y_of(y), 4, _BAR_FILL)
        chart.text(x_of(x) + 6, y_of(y) - 4, label, size=8)
    chart.write(path)
