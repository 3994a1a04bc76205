"""CSV and SVG output of the command line: ``--format csv`` and ``--format svg``.

Only a run that writes one of these formats loads this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .forces import PressureProfile

if TYPE_CHECKING:
    from .analysis import SweepTable

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


class PlotSpec(NamedTuple):
    """Single-panel line chart: labeled series plus optional horizontal references.

    :func:`emit_svg` checks it before drawing.
    """

    x_label: str
    y_label: str
    series: tuple[tuple[str, tuple[tuple[float, float], ...]], ...]
    ref_lines: tuple[tuple[str, float], ...] = ()


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_csv(table: PressureProfile | SweepTable) -> bytes:
    """CSV with 17 significant digits, \\n line endings, no locale."""
    if isinstance(table, PressureProfile):
        lines = ["r,p_x,p_z"]
        for s in table.samples:
            lines.append(f"{_fmt(s.r)},{_fmt(s.p_x)},{_fmt(s.p_z)}")
        return ("\n".join(lines) + "\n").encode("ascii")
    # a profile run leaves the analysis module unloaded; a sweep run has loaded it
    from .analysis import SweepTable

    if not isinstance(table, SweepTable):
        raise TypeError(f"no CSV form for {type(table).__name__}")
    lines = ["param,f_x,f_z,err_x,err_z,converged"]
    for param, res in table.points:
        flag = "true" if res.converged else "false"
        lines.append(
            f"{_fmt(param)},{_fmt(res.f_x)},{_fmt(res.f_z)},"
            f"{_fmt(res.err_x)},{_fmt(res.err_z)},{flag}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_svg(plot: PlotSpec) -> bytes:
    """Self-contained 640x440 SVG: axes, ticks, one polyline per series or reference.

    A flat series (all y identical) is drawn against a padded range of
    +/- max(1, |y|)/2 instead of failing; that is the documented handling
    of the degenerate-plot case.  A plot without a series, a series with
    fewer than 2 points, or a coordinate or reference level that is not
    finite raises ``ValueError``.
    """
    if not plot.series:
        raise ValueError("plot needs at least one series")
    for name, points in plot.series:
        if len(points) < 2:
            raise ValueError(f"series {name!r} needs at least 2 points")
        for x, y in points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"series {name!r} has a non-finite point ({x!r}, {y!r})")
    for name, y in plot.ref_lines:
        if not math.isfinite(y):
            raise ValueError(f"reference line {name!r} is non-finite")
    w, h = 640.0, 440.0
    ml, mr, mt, mb = 70.0, 20.0, 20.0, 50.0
    xs = [p[0] for _, pts in plot.series for p in pts]
    ys = [p[1] for _, pts in plot.series for p in pts]
    ys += [y for _, y in plot.ref_lines]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        pad = 0.5 * max(1.0, abs(xmin))
        xmin, xmax = xmin - pad, xmax + pad
    if ymax == ymin:
        pad = 0.5 * max(1.0, abs(ymin))
        ymin, ymax = ymin - pad, ymax + pad

    def px(x: float) -> float:
        return ml + (x - xmin) / (xmax - xmin) * (w - ml - mr)

    def py(y: float) -> float:
        return (h - mb) - (y - ymin) / (ymax - ymin) * (h - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        f'<line x1="{ml:.2f}" y1="{h - mb:.2f}" x2="{w - mr:.2f}" y2="{h - mb:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{h - mb:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k in range(5):
        xv = xmin + (xmax - xmin) * k / 4
        yv = ymin + (ymax - ymin) * k / 4
        xp, yp = px(xv), py(yv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{h - mb:.2f}" x2="{xp:.2f}" y2="{h - mb + 5:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{h - mb + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{format(xv, ".4g")}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{yp:.2f}" x2="{ml:.2f}" y2="{yp:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{yp + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{format(yv, ".4g")}</text>'
        )
    parts.append(
        f'<text x="{(ml + w - mr) / 2:.2f}" y="{h - 12:.2f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{plot.x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(mt + h - mb) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 14 {(mt + h - mb) / 2:.2f})">'
        f"{plot.y_label}</text>"
    )
    for name, yv in plot.ref_lines:
        yp = py(yv)
        parts.append(
            f'<polyline fill="none" stroke="#777777" stroke-width="1" '
            f'stroke-dasharray="6,4" points="{px(xmin):.2f},{yp:.2f} {px(xmax):.2f},{yp:.2f}"/>'
        )
        parts.append(
            f'<text x="{w - mr - 4:.2f}" y="{yp - 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif" fill="#777777">{name}</text>'
        )
    for idx, (name, pts) in enumerate(plot.series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{w - mr - 4:.2f}" y="{mt + 14 + 16 * idx:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
