"""Command-line front end and serialization: CSV, JSON, SVG.

Subcommands: profile, force, sweep, optimize, verify.  Angles are degrees
on the command line and radians everywhere inside.  Exit codes: 0 success,
1 numerical failure (reported as a JSON object on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from .analysis import SweepAxis, SweepTable, optimize_phi, sweep
from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import ForceResult, PressureProfile, pressure_profile, total_forces
from .geometry import CavitySpec, Units, validate
from .kernels import classical_casimir_pressure, pressure_prefactor
from .oracle import verify_suite

_FORMATS = {
    "profile": ("csv", "json", "svg"),
    "force": ("json",),
    "sweep": ("csv", "json", "svg"),
    "optimize": ("json",),
    "verify": ("json",),
}

_DEFAULTS = {
    "L": 1.0,
    "phi_deg": 0.0,
    "units": "si",
    "tol": 1e-9,
    "samples": 256,
    "wing_count": 1,
    "workers": 1,
    "out": None,
    "quantity": "both",
    "reference_classical": False,
    "axis": None,
    "values": None,
    "phi_lo_deg": None,
    "phi_hi_deg": None,
    "phi_tol_deg": math.degrees(1e-5),
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation; the unit of CLI round-tripping."""

    command: str
    a: float
    R: float
    L: float
    phi_deg: float
    units: str
    tol: float
    samples: int
    wing_count: int
    workers: int
    out: str | None
    format: str
    quantity: str
    reference_classical: bool
    axis: str | None
    values: tuple[float, ...] | None
    phi_lo_deg: float | None
    phi_hi_deg: float | None
    phi_tol_deg: float


@dataclass(frozen=True)
class PlotSpec:
    """Single-panel line chart: labeled series plus optional horizontal references."""

    x_label: str
    y_label: str
    series: tuple[tuple[str, tuple[tuple[float, float], ...]], ...]
    width: int = 640
    height: int = 440
    ref_lines: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("plot needs at least one series")
        for name, points in self.series:
            if len(points) < 2:
                raise ValueError(f"series {name!r} needs at least 2 points")
            for x, y in points:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"series {name!r} has a non-finite point ({x!r}, {y!r})")
        for name, y in self.ref_lines:
            if not math.isfinite(y):
                raise ValueError(f"reference line {name!r} is non-finite")
        if self.width < 100 or self.height < 100:
            raise ValueError("plot dimensions must be at least 100x100 pixels")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapcav",
        description="Casimir compression and expulsion forces on open trapezoid cavities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    cavity = shared.add_argument_group("cavity")
    cavity.add_argument("--a", type=float, help="gap at the narrow end (m in SI mode)")
    cavity.add_argument("--R", type=float, help="wing length")
    cavity.add_argument("--L", type=float, help="cavity width (default 1)")
    cavity.add_argument(
        "--phi-deg", type=float, dest="phi_deg", help="half-opening angle, degrees (default 0)"
    )
    cavity.add_argument("--units", choices=("si", "reduced"), help="unit system (default si)")
    running = shared.add_argument_group("run")
    running.add_argument("--tol", type=float, help="force-integral relative tolerance (default 1e-9)")
    running.add_argument("--samples", type=int, help="profile sample count (default 256)")
    running.add_argument(
        "--wing-count", type=int, choices=(1, 2), dest="wing_count", help="wings to report (default 1)"
    )
    running.add_argument(
        "--workers",
        type=int,
        help="accepted for compatibility (>= 1, default 1); sweep rows run one after another",
    )
    running.add_argument("--out", help="output path (default stdout)")
    running.add_argument("--format", choices=("csv", "json", "svg"))
    running.add_argument("--config", help="JSON file with the same fields; explicit flags win")

    profile = sub.add_parser("profile", parents=[shared], help="pressures along the wing")
    profile.add_argument("--quantity", choices=("px", "pz", "both"))
    profile.add_argument(
        "--reference-classical",
        action=argparse.BooleanOptionalAction,
        dest="reference_classical",
        default=None,
        help="add the parallel-plate reference level to SVG output",
    )
    sub.add_parser("force", parents=[shared], help="total forces on one wing")
    swp = sub.add_parser("sweep", parents=[shared], help="forces along a parameter grid")
    swp.add_argument("--axis", choices=("phi", "R"))
    swp.add_argument(
        "--values", type=_float_list, help="comma-separated grid; degrees when axis=phi"
    )
    opt = sub.add_parser("optimize", parents=[shared], help="locate the expulsion maximum")
    opt.add_argument("--phi-lo-deg", type=float, dest="phi_lo_deg")
    opt.add_argument("--phi-hi-deg", type=float, dest="phi_hi_deg")
    opt.add_argument("--phi-tol-deg", type=float, dest="phi_tol_deg")
    sub.add_parser("verify", parents=[shared], help="run the oracle cross-check suite")
    return parser


def _load_config_file(parser: argparse.ArgumentParser, path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        parser.error(f"--config: cannot read {path!r}: {err}")
    except json.JSONDecodeError as err:
        parser.error(f"--config: {path!r} is not valid JSON: {err}")
    if not isinstance(data, dict):
        parser.error(f"--config: {path!r} must contain a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        parser.error(f"--config: unknown keys {', '.join(unknown)}")
    return data


def parse_args(argv: list[str]) -> RunConfig:
    """Resolve argv (and any --config file) into a :class:`RunConfig`.

    Precedence per field: explicit flag, then config file, then default.
    The subcommand always comes from argv.  Usage problems exit with code 2
    and a diagnostic naming the offending flag.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_data = _load_config_file(parser, ns.config) if ns.config else {}

    def pick(name):
        value = getattr(ns, name, None)
        if value is not None:
            return value
        if name in file_data and file_data[name] is not None:
            return file_data[name]
        return _DEFAULTS.get(name)

    command = ns.command
    a = pick("a")
    if a is None:
        parser.error("--a is required (flag or config file)")
    big_r = pick("R")
    if big_r is None:
        parser.error("--R is required (flag or config file)")

    units = pick("units")
    if units not in ("si", "reduced"):
        parser.error(f"--units must be si or reduced, got {units!r}")
    fmt = pick("format") or _FORMATS[command][0]
    if fmt not in _FORMATS[command]:
        allowed = ", ".join(_FORMATS[command])
        parser.error(f"--format {fmt!r} not supported for {command} (allowed: {allowed})")

    samples = int(pick("samples"))
    if samples < 2:
        parser.error(f"--samples must be at least 2, got {samples}")
    wing_count = int(pick("wing_count"))
    if wing_count not in (1, 2):
        parser.error(f"--wing-count must be 1 or 2, got {wing_count}")
    workers = int(pick("workers"))
    if workers < 1:
        parser.error(f"--workers must be at least 1, got {workers}")
    tol = float(pick("tol"))
    if not tol > 0:
        parser.error(f"--tol must be positive, got {tol!r}")

    quantity = pick("quantity")
    if quantity not in ("px", "pz", "both"):
        parser.error(f"--quantity must be px, pz or both, got {quantity!r}")
    reference = pick("reference_classical")
    if not isinstance(reference, bool):
        parser.error(f"--reference-classical must be a boolean, got {reference!r}")

    axis = pick("axis")
    values = pick("values")
    if command == "sweep":
        if axis not in ("phi", "R"):
            parser.error("--axis is required for sweep (phi or R)")
        if not values:
            parser.error("--values is required for sweep")
        values = tuple(float(v) for v in values)
        for first, second in zip(values, values[1:]):
            if not (second > first):
                parser.error("--values must be strictly increasing")
    else:
        axis = None
        values = None

    phi_lo = pick("phi_lo_deg")
    phi_hi = pick("phi_hi_deg")
    phi_tol = float(pick("phi_tol_deg"))
    if command == "optimize":
        if phi_lo is None or phi_hi is None:
            parser.error("--phi-lo-deg and --phi-hi-deg are required for optimize")
        phi_lo = float(phi_lo)
        phi_hi = float(phi_hi)
        if not (0.0 < phi_lo < phi_hi < 45.0):
            parser.error("optimize needs 0 < --phi-lo-deg < --phi-hi-deg < 45")
        if not phi_tol > 0:
            parser.error(f"--phi-tol-deg must be positive, got {phi_tol!r}")
    else:
        phi_lo = None
        phi_hi = None

    out = pick("out")
    return RunConfig(
        command=command,
        a=float(a),
        R=float(big_r),
        L=float(pick("L")),
        phi_deg=float(pick("phi_deg")),
        units=units,
        tol=tol,
        samples=samples,
        wing_count=wing_count,
        workers=workers,
        out=None if out is None else str(out),
        format=fmt,
        quantity=quantity,
        reference_classical=reference,
        axis=axis,
        values=values,
        phi_lo_deg=phi_lo,
        phi_hi_deg=phi_hi,
        phi_tol_deg=phi_tol,
    )


def render_args(config: RunConfig) -> list[str]:
    """Canonical argv for a config: parse_args(render_args(c)) == c."""
    argv = [
        config.command,
        "--a", repr(config.a),
        "--R", repr(config.R),
        "--L", repr(config.L),
        "--phi-deg", repr(config.phi_deg),
        "--units", config.units,
        "--tol", repr(config.tol),
        "--samples", str(config.samples),
        "--wing-count", str(config.wing_count),
        "--workers", str(config.workers),
        "--format", config.format,
    ]
    if config.out is not None:
        argv += ["--out", config.out]
    if config.command == "profile":
        argv += ["--quantity", config.quantity]
        argv += ["--reference-classical" if config.reference_classical else "--no-reference-classical"]
    elif config.command == "sweep":
        argv += ["--axis", config.axis, "--values", ",".join(repr(v) for v in config.values)]
    elif config.command == "optimize":
        argv += [
            "--phi-lo-deg", repr(config.phi_lo_deg),
            "--phi-hi-deg", repr(config.phi_hi_deg),
            "--phi-tol-deg", repr(config.phi_tol_deg),
        ]
    return argv


def _spec_dict(spec: CavitySpec) -> dict:
    return {"a": spec.a, "R": spec.R, "L": spec.L, "phi": spec.phi, "units": spec.units.value}


def _force_dict(result: ForceResult) -> dict:
    return {
        "f_x": result.f_x,
        "f_z": result.f_z,
        "err_x": result.err_x,
        "err_z": result.err_z,
        "wing_count": result.wing_count,
        "converged": result.converged,
    }


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_csv(table: PressureProfile | SweepTable) -> bytes:
    """CSV with 17 significant digits, \\n line endings, no locale."""
    lines = []
    if isinstance(table, PressureProfile):
        lines.append("r,p_x,p_z")
        for s in table.samples:
            lines.append(f"{_fmt(s.r)},{_fmt(s.p_x)},{_fmt(s.p_z)}")
    elif isinstance(table, SweepTable):
        lines.append("param,f_x,f_z,err_x,err_z,converged")
        for param, res in table.points:
            flag = "true" if res.converged else "false"
            lines.append(
                f"{_fmt(param)},{_fmt(res.f_x)},{_fmt(res.f_z)},"
                f"{_fmt(res.err_x)},{_fmt(res.err_z)},{flag}"
            )
    else:
        raise TypeError(f"no CSV form for {type(table).__name__}")
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_svg(plot: PlotSpec) -> bytes:
    """Self-contained SVG: axes, ticks, one polyline per series or reference.

    A flat series (all y identical) is drawn against a padded range of
    +/- max(1, |y|)/2 instead of failing; that is the documented handling
    of the degenerate-plot case.
    """
    w, h = float(plot.width), float(plot.height)
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


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _error_dict(err: Exception) -> dict:
    payload = {"error": type(err).__name__, "message": str(err)}
    for attr in ("field", "value", "error_estimate", "evaluations", "name"):
        if hasattr(err, attr):
            payload[attr] = getattr(err, attr)
    return payload


def _write_output(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trapcav-tmp-")
    try:
        os.write(fd, payload)
        os.close(fd)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.close(fd)
        except OSError:
            pass
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_spec(config: RunConfig) -> CavitySpec:
    return CavitySpec(
        a=config.a,
        R=config.R,
        L=config.L,
        phi=math.radians(config.phi_deg),
        units=Units(config.units),
    )


def _profile_payload(config: RunConfig, spec: CavitySpec) -> bytes:
    profile = pressure_profile(spec, config.samples)
    if config.format == "csv":
        return emit_csv(profile)
    if config.format == "json":
        return _json_bytes(
            {
                "spec": _spec_dict(spec),
                "samples": [
                    {"r": s.r, "p_x": s.p_x, "p_z": s.p_z} for s in profile.samples
                ],
            }
        )
    rs = [s.r for s in profile.samples]
    series = []
    if config.quantity in ("px", "both"):
        series.append(("p_x", tuple(zip(rs, (s.p_x for s in profile.samples)))))
    if config.quantity in ("pz", "both"):
        series.append(("p_z", tuple(zip(rs, (s.p_z for s in profile.samples)))))
    refs = ()
    if config.reference_classical:
        level = classical_casimir_pressure(spec.a, k=pressure_prefactor(spec))
        refs = (("classical", level),)
    plot = PlotSpec(
        x_label="r", y_label="pressure", series=tuple(series), ref_lines=refs
    )
    return emit_svg(plot)


def _sweep_payload(config: RunConfig, spec: CavitySpec) -> bytes:
    axis = SweepAxis(config.axis)
    values = list(config.values)
    if axis is SweepAxis.PHI:
        values = [math.radians(v) for v in values]
    table = sweep(
        spec,
        axis,
        values,
        rel_tol=config.tol,
        wing_count=config.wing_count,
        workers=config.workers,
    )
    if config.format == "csv":
        return emit_csv(table)
    if config.format == "json":
        return _json_bytes(
            {
                "axis": table.axis.value,
                "base": _spec_dict(spec),
                "points": [
                    {"param": param, **_force_dict(res)} for param, res in table.points
                ],
            }
        )
    pts = tuple((param, abs(res.f_x)) for param, res in table.points)
    label = "phi [rad]" if axis is SweepAxis.PHI else "R"
    plot = PlotSpec(x_label=label, y_label="|f_x|", series=(("|f_x|", pts),))
    return emit_svg(plot)


def run(config: RunConfig) -> int:
    """Execute a resolved config; returns the process exit code."""
    try:
        spec = _build_spec(config)
        validate(spec)
        code = 0
        if config.command == "profile":
            payload = _profile_payload(config, spec)
        elif config.command == "force":
            result = total_forces(spec, config.tol, wing_count=config.wing_count)
            if not result.converged:
                _emit_error(
                    {
                        "error": "NotConverged",
                        "message": "force integration did not converge",
                        **_force_dict(result),
                    }
                )
                return 1
            payload = _json_bytes({"spec": _spec_dict(spec), **_force_dict(result)})
        elif config.command == "sweep":
            payload = _sweep_payload(config, spec)
        elif config.command == "optimize":
            report = optimize_phi(
                spec,
                math.radians(config.phi_lo_deg),
                math.radians(config.phi_hi_deg),
                tol=math.radians(config.phi_tol_deg),
                rel_tol=config.tol,
            )
            payload = _json_bytes(
                {
                    "spec": _spec_dict(spec),
                    "phi_star": report.phi_star,
                    "f_x_star": report.f_x_star,
                    "bracket": list(report.bracket),
                    "iterations": report.iterations,
                    "grid_prescan": [[phi, fx] for phi, fx in report.grid_prescan],
                }
            )
        elif config.command == "verify":
            reports = verify_suite(spec)
            all_passed = all(r.passed for r in reports)
            payload = _json_bytes(
                {
                    "spec": _spec_dict(spec),
                    "all_passed": all_passed,
                    "checks": [asdict(r) for r in reports],
                }
            )
            if not all_passed:
                code = 1
        else:
            raise ValueError(f"unknown command {config.command!r}")
    except (InvalidCavity, OutOfRange) as err:
        _emit_error(_error_dict(err))
        return 2
    except TrapcavError as err:
        _emit_error(_error_dict(err))
        return 1
    except ValueError as err:
        _emit_error(_error_dict(err))
        return 2
    _write_output(payload, config.out)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
