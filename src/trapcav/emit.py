"""CSV and SVG output of the command line: ``--format csv`` and ``--format svg``.

Only a run that writes one of these formats loads this module.
"""

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


def emit_csv(table: "PressureProfile | SweepTable") -> bytes:
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

    def line(x1: float, y1: float, x2: float, y2: float) -> str:
        return (
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )

    def text(x: str, y: float, size: int, anchor: str, label: str, extra: str = "") -> str:
        # x comes formatted: the rotated y-axis label sits at a bare x="14"
        return (
            f'<text x="{x}" y="{y:.2f}" font-size="{size}" text-anchor="{anchor}" '
            f'font-family="sans-serif"{extra}>{label}</text>'
        )

    # the legend's right edge, and the middle of the y axis
    key_x, ymid = f"{w - mr - 4:.2f}", (mt + h - mb) / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        line(ml, h - mb, w - mr, h - mb),
        line(ml, mt, ml, h - mb),
    ]
    for k in range(5):
        xv = xmin + (xmax - xmin) * k / 4
        yv = ymin + (ymax - ymin) * k / 4
        xp, yp = px(xv), py(yv)
        parts.append(line(xp, h - mb, xp, h - mb + 5))
        parts.append(text(f"{xp:.2f}", h - mb + 18, 11, "middle", format(xv, ".4g")))
        parts.append(line(ml - 5, yp, ml, yp))
        parts.append(text(f"{ml - 8:.2f}", yp + 4, 11, "end", format(yv, ".4g")))
    parts.append(text(f"{(ml + w - mr) / 2:.2f}", h - 12, 13, "middle", plot.x_label))
    rotate = f' transform="rotate(-90 14 {ymid:.2f})"'
    parts.append(text("14", ymid, 13, "middle", plot.y_label, rotate))
    for name, yv in plot.ref_lines:
        yp = py(yv)
        parts.append(
            f'<polyline fill="none" stroke="#777777" stroke-width="1" '
            f'stroke-dasharray="6,4" points="{px(xmin):.2f},{yp:.2f} {px(xmax):.2f},{yp:.2f}"/>'
        )
        parts.append(text(key_x, yp - 4, 11, "end", name, ' fill="#777777"'))
    for idx, (name, pts) in enumerate(plot.series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(text(key_x, mt + 14 + 16 * idx, 12, "end", name, f' fill="{color}"'))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
