"""Tiny deterministic SVG chart writer.

Just enough for the toolkit's month charts: line and point series over a
month axis, fixed canvas, fixed-precision coordinates, no dependencies. A
series has one value per month, and the x axis covers every month, so a
month without a value still has its place. The same data always renders to
the same bytes, which is what the reproducible-output contract needs
(matplotlib SVGs embed volatile ids and dates). Each chart is drawn by the
module that owns its table: metric_<column>.svg by metrics.MetricSeries.charts,
fit_<metric>.svg by phasefit.ColumnFit.chart, tunnel_aspl.svg by crossnet.aspl_chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 760
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 44
MARGIN_BOTTOM = 56


@dataclass
class Series:
    label: str
    values: Sequence[float | None]  # one per date of the chart; None is a gap
    draw_line: bool = True
    draw_points: bool = False


def _span(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def render_chart(series: Sequence[Series], title: str, y_label: str, dates: Sequence[str]) -> str:
    """Render the series into a standalone SVG document string.

    Each series has one value per entry of dates (not empty), drawn at its
    1-based position. The x axis spans every date, so every date tick and
    every point lies inside the plot. The ticks are the first date, every
    step-th after it, and the last; step is a fifth of the months after the
    first, rounded down, at least 1.
    """
    if any(len(s.values) != len(dates) for s in series):
        raise ValueError("every series needs one value per date")
    ys_all = [float(v) for s in series for v in s.values if v is not None] or [0.0, 1.0]
    x_lo, x_hi = _span([1.0, float(len(dates))])
    y_lo, y_hi = _span(ys_all)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    for y in _ticks(y_lo, y_hi):
        ypix = py(y)
        out.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{ypix:.2f}" x2="{MARGIN_LEFT}" y2="{ypix:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{ypix + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(y)}</text>'
        )
    bottom = MARGIN_TOP + plot_h
    last = len(dates) - 1
    for i in [*range(0, last, max(1, last // 5)), last]:
        xpix = px(i + 1.0)
        out.append(
            f'<line x1="{xpix:.2f}" y1="{bottom}" x2="{xpix:.2f}" y2="{bottom + 4}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xpix:.2f}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(dates[i])}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">month</text>'
    )
    ylx, yly = 18, MARGIN_TOP + plot_h // 2
    out.append(
        f'<text x="{ylx}" y="{yly}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 {ylx} {yly})">{_escape(y_label)}</text>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = [(px(x + 1.0), py(float(v))) for x, v in enumerate(s.values) if v is not None]
        if s.draw_line and len(pts) > 1:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if s.draw_points or len(pts) == 1:
            for x, y in pts:
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
        ly = MARGIN_TOP + 16 + 16 * i
        lx = WIDTH - MARGIN_RIGHT - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
