"""Command-line front end and serialization: CSV, JSON, SVG.

Subcommands: profile, force, sweep, optimize, verify.  Angles are degrees
on the command line and radians everywhere inside.  Exit codes: 0 success,
1 numerical failure (reported as a JSON object on stderr), 2 usage error
(an --out path that cannot be written included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing

from .analysis import PHI_TOL_FLOOR, SweepAxis, SweepTable, optimize_phi, sweep
from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import ForceResult, PressureProfile, pressure_profile, total_forces
from .geometry import REL_TOL_FLOOR, CavitySpec, Units, pressure_prefactor, validate
from .kernels import classical_casimir_pressure

_FORMATS = {
    "profile": ("csv", "json", "svg"),
    "force": ("json",),
    "sweep": ("csv", "json", "svg"),
    "optimize": ("json",),
    "verify": ("json",),
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def __getattr__(name: str):
    # the oracle loads only when verify looks it up; bench/tracing.py wraps
    # verify_suite under this name, so run() calls it through this module's
    # attribute
    if name == "verify_suite":
        from .oracle import verify_suite

        return verify_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RunConfig(typing.NamedTuple):
    """Fully resolved invocation; the unit of CLI round-tripping.

    A field the subcommand does not define is None.
    """

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
    quantity: str | None
    reference_classical: bool | None
    axis: str | None
    values: tuple[float, ...] | None
    phi_lo_deg: float | None
    phi_hi_deg: float | None
    phi_tol_deg: float | None


class PlotSpec(typing.NamedTuple):
    """Single-panel line chart: labeled series plus optional horizontal references.

    :func:`emit_svg` checks it before drawing.
    """

    x_label: str
    y_label: str
    series: tuple[tuple[str, tuple[tuple[float, float], ...]], ...]
    ref_lines: tuple[tuple[str, float], ...] = ()


def _checked(convert, ok, rule: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _at_least(floor: float):
    rule = f"must be at least {floor!r} and finite"
    return _checked(float, lambda v: floor <= v < math.inf, rule)


# the floors of force_batch and optimize_phi, so that a flag or config
# value under them is refused where it is read
_tolerance = _at_least(REL_TOL_FLOOR)
_phi_tolerance_deg = _at_least(math.degrees(PHI_TOL_FLOOR))
_grid = _checked(
    _float_list,
    lambda v: len(v) > 0 and all(b > a for a, b in zip(v, v[1:])),
    "must be a non-empty, strictly increasing list",
)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name; each field is declared once here."""
    parser = argparse.ArgumentParser(
        prog="trapcav",
        description="Casimir compression and expulsion forces on open trapezoid cavities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    cavity = shared.add_argument_group("cavity")
    cavity.add_argument("--a", type=float, required=True, help="gap at the narrow end (m in SI mode)")
    cavity.add_argument("--R", type=float, required=True, help="wing length")
    cavity.add_argument("--L", type=float, default=1.0, help="cavity width (default %(default)s)")
    cavity.add_argument(
        "--phi-deg", type=float, default=0.0, dest="phi_deg",
        help="half-opening angle, degrees (default %(default)s)",
    )
    cavity.add_argument(
        "--units", choices=("si", "reduced"), default="si", help="unit system (default %(default)s)"
    )
    running = shared.add_argument_group("run")
    running.add_argument(
        "--tol", type=_tolerance, default=1e-9,
        help="relative tolerance a force's rounding bound must meet (default %(default)s)",
    )
    running.add_argument(
        "--samples", type=_checked(int, lambda v: v >= 2, "must be at least 2"), default=256,
        help="profile sample count (default %(default)s)",
    )
    running.add_argument(
        "--wing-count", type=int, choices=(1, 2), default=1, dest="wing_count",
        help="wings to report (default %(default)s)",
    )
    running.add_argument(
        "--workers", type=_checked(int, lambda v: v >= 1, "must be at least 1"), default=1,
        help="accepted for compatibility (>= 1, default %(default)s); "
        "sweep rows run one after another",
    )
    running.add_argument("--out", help="output path (default stdout)")
    running.add_argument("--config", help="JSON file with the same fields; explicit flags win")

    commands = {}
    for name, summary in (
        ("profile", "pressures along the wing"),
        ("force", "total forces on one wing"),
        ("sweep", "forces along a parameter grid"),
        ("optimize", "locate the expulsion maximum"),
        ("verify", "run the oracle cross-check suite"),
    ):
        command = sub.add_parser(name, parents=[shared], help=summary)
        command.add_argument("--format", choices=_FORMATS[name], default=_FORMATS[name][0])
        commands[name] = command

    profile = commands["profile"]
    profile.add_argument("--quantity", choices=("px", "pz", "both"), default="both")
    profile.add_argument(
        "--reference-classical", action=argparse.BooleanOptionalAction, default=False,
        dest="reference_classical", help="add the parallel-plate reference level to SVG output",
    )
    swp = commands["sweep"]
    swp.add_argument("--axis", choices=("phi", "R"), required=True)
    swp.add_argument(
        "--values", type=_grid, required=True, help="comma-separated grid; degrees when axis=phi"
    )
    opt = commands["optimize"]
    opt.add_argument("--phi-lo-deg", type=float, required=True, dest="phi_lo_deg")
    opt.add_argument("--phi-hi-deg", type=float, required=True, dest="phi_hi_deg")
    opt.add_argument(
        "--phi-tol-deg", type=_phi_tolerance_deg, default=math.degrees(1e-5), dest="phi_tol_deg"
    )
    return parser, commands


def _config_tokens(
    parser: argparse.ArgumentParser, command: argparse.ArgumentParser, path: str
) -> list[str]:
    """The --config file as ``--flag=value`` tokens for ``command``'s own fields.

    Keys of another subcommand, ``command`` and null values are dropped;
    keys that are no :class:`RunConfig` field are rejected.  An integral
    float for an integer field (``256.0``) is passed as its integer.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        parser.error(f"--config: cannot read {path!r}: {err}")
    except json.JSONDecodeError as err:
        parser.error(f"--config: {path!r} is not valid JSON: {err}")
    if not isinstance(data, dict):
        parser.error(f"--config: {path!r} must contain a JSON object")
    unknown = sorted(set(data) - set(RunConfig._fields))
    if unknown:
        parser.error(f"--config: unknown keys {', '.join(unknown)}")
    actions = {action.dest: action for action in command._actions}
    int_fields = {name for name, kind in typing.get_type_hints(RunConfig).items() if kind is int}
    tokens = []
    for key, value in data.items():
        action = actions.get(key)
        if action is None or value is None:
            continue
        if key in int_fields and isinstance(value, float) and value.is_integer():
            # JSON Schema's "integer" takes 256.0 as well as 256
            value = int(value)
        flag = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction) and isinstance(value, bool):
            tokens.append(flag if value else action.option_strings[1])
        elif isinstance(value, list) and action.type is _grid:
            tokens.append(f"{flag}={','.join(map(str, value))}")
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def parse_args(argv: list[str]) -> RunConfig:
    """Resolve argv (and any --config file) into a :class:`RunConfig`.

    The --config file is read first and its fields become ``--flag=value``
    tokens placed right after the subcommand, so one parser checks file and
    flags alike and, keeping the last value given, lets an explicit flag win
    over the file and the file over the default.  The subcommand always
    comes from argv.  Usage problems, bad config values included, exit with
    code 2 and a diagnostic naming the offending flag.
    """
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        pre = argparse.ArgumentParser(prog=f"trapcav {argv[0]}", add_help=False)
        pre.add_argument("-h", "--help", action="store_true")
        pre.add_argument("--config")
        found, _ = pre.parse_known_args(argv[1:])
        if found.config and not found.help:
            argv = [argv[0], *_config_tokens(parser, commands[argv[0]], found.config), *argv[1:]]
    ns = parser.parse_args(argv)
    if ns.command == "optimize" and not (0.0 < ns.phi_lo_deg < ns.phi_hi_deg < 45.0):
        parser.error("optimize needs 0 < --phi-lo-deg < --phi-hi-deg < 45")
    return RunConfig(**{name: getattr(ns, name, None) for name in RunConfig._fields})


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


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _json_number(v):
    # JSON has no inf or NaN: they go out as the strings "inf", "-inf" and
    # "nan", also inside a vector integrand's tuple
    if isinstance(v, tuple):
        return [_json_number(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    return v


def _error_dict(err: Exception) -> dict:
    payload = {"error": type(err).__name__, "message": str(err)}
    for attr in ("field", "value", "error_estimate", "evaluations", "name"):
        if hasattr(err, attr):
            payload[attr] = _json_number(getattr(err, attr))
    return payload


def _write_output(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    # only --out needs tempfile; the other runs skip its import
    import tempfile

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
    pts = tuple((param, abs(res.f_x)) for param, res in table.points if math.isfinite(res.f_x))
    if len(pts) < 2:
        found = f"{len(pts)} of {len(table.points)}"
        raise TrapcavError(f"sweep SVG needs 2 rows with a finite f_x, {found} have one")
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
            reports = sys.modules[__name__].verify_suite(spec)
            all_passed = all(r.passed for r in reports)
            payload = _json_bytes(
                {
                    "spec": _spec_dict(spec),
                    "all_passed": all_passed,
                    "checks": [r._asdict() for r in reports],
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
    try:
        _write_output(payload, config.out)
    except OSError as err:
        # the OS message names the temporary file; name the --out path
        target = "stdout" if config.out is None else repr(config.out)
        message = f"cannot write {target}: {err.strerror}"
        _emit_error({**_error_dict(err), "message": message})
        return 2
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
