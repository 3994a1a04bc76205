"""Command-line front end and its JSON output; CSV and SVG are in :mod:`~trapcav.emit`.

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

from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import ForceResult, pressure_profile, total_forces
from .geometry import PHI_TOL_FLOOR, REL_TOL_FLOOR, CavitySpec, Units, pressure_prefactor, validate

# each subcommand's help and output formats; the first format is its default
_COMMANDS = {
    "profile": ("pressures along the wing", ("csv", "json", "svg")),
    "force": ("total forces on one wing", ("json",)),
    "sweep": ("forces along a parameter grid", ("csv", "json", "svg")),
    "optimize": ("locate the expulsion maximum", ("json",)),
    "verify": ("run the oracle cross-check suite", ("json",)),
}


# sweep and optimize_phi stay names of this module, but the sweep and
# optimize commands import the analysis's own functions where they call
# them, so that a wrapper installed on both names (a profiler's, say) runs
# once per call, not twice
def sweep(*args, **kwargs):
    """:func:`trapcav.analysis.sweep`; the analysis loads on the first call."""
    from .analysis import sweep

    return sweep(*args, **kwargs)


def optimize_phi(*args, **kwargs):
    """:func:`trapcav.analysis.optimize_phi`; the analysis loads on the first call."""
    from .analysis import optimize_phi

    return optimize_phi(*args, **kwargs)


def verify_suite(spec: CavitySpec) -> list:
    """:func:`trapcav.oracle.verify_suite`; the oracle loads on the first call."""
    from .oracle import verify_suite

    return verify_suite(spec)


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


# the floors of total_forces and optimize_phi, so that a flag or config
# value under them is refused where it is read
_tolerance = _at_least(REL_TOL_FLOOR)
_phi_tolerance_deg = _at_least(math.degrees(PHI_TOL_FLOOR))
_grid = _checked(
    _float_list,
    lambda v: len(v) > 0 and all(b > a for a, b in zip(v, v[1:])),
    "must be a non-empty, strictly increasing list",
)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name.

    Every flag is declared only here: --config files and :func:`render_args`
    write their tokens from these parsers' actions.
    """
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
    for name, (summary, formats) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[shared], help=summary)
        command.add_argument("--format", choices=formats, default=formats[0])
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


def _tokens(command: argparse.ArgumentParser, fields: dict) -> list[str]:
    """``--flag=value`` tokens for the fields that ``command`` defines.

    Fields that are None or that belong to another subcommand are dropped.
    A boolean goes out as a BooleanOptionalAction flag or its ``--no-``
    form, and a --values list or tuple is joined with commas.
    """
    actions = {action.dest: action for action in command._actions}
    tokens = []
    for key, value in fields.items():
        action = actions.get(key)
        if action is None or value is None:
            continue
        flag = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction) and isinstance(value, bool):
            tokens.append(flag if value else action.option_strings[1])
        elif isinstance(value, (list, tuple)) and action.type is _grid:
            tokens.append(f"{flag}={','.join(map(str, value))}")
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _config_tokens(
    parser: argparse.ArgumentParser, command: argparse.ArgumentParser, path: str
) -> list[str]:
    """The --config file as :func:`_tokens` for ``command``.

    Keys that are no :class:`RunConfig` field are rejected.  An integral
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
    int_fields = {name for name, kind in typing.get_type_hints(RunConfig).items() if kind is int}
    for key, value in data.items():
        if key in int_fields and isinstance(value, float) and value.is_integer():
            # JSON Schema's "integer" takes 256.0 as well as 256
            data[key] = int(value)
    return _tokens(command, data)


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
    """Canonical argv for a config: parse_args(render_args(c)) == c.

    The subcommand followed by one ``--flag=value`` token per field it
    defines, written by the parser's own actions.
    """
    _, commands = _build_parser()
    return [config.command, *_tokens(commands[config.command], config._asdict())]


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


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _json_number(v):
    # JSON has no inf or NaN: they go out as the strings "inf", "-inf" and "nan"
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    return v


def _error_dict(err: Exception) -> dict:
    payload = {"error": type(err).__name__, "message": str(err)}
    for attr in ("field", "value", "name"):
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
    if config.format == "json":
        return _json_bytes(
            {
                "spec": _spec_dict(spec),
                "samples": [
                    {"r": s.r, "p_x": s.p_x, "p_z": s.p_z} for s in profile.samples
                ],
            }
        )
    # only csv and svg output loads the emitter
    from .emit import PlotSpec, emit_csv, emit_svg

    if config.format == "csv":
        return emit_csv(profile)
    rs = [s.r for s in profile.samples]
    series = []
    if config.quantity in ("px", "both"):
        series.append(("p_x", tuple(zip(rs, (s.p_x for s in profile.samples)))))
    if config.quantity in ("pz", "both"):
        series.append(("p_z", tuple(zip(rs, (s.p_z for s in profile.samples)))))
    refs = ()
    if config.reference_classical:
        from .kernels import classical_casimir_pressure

        level = classical_casimir_pressure(spec.a, k=pressure_prefactor(spec))
        refs = (("classical", level),)
    plot = PlotSpec(
        x_label="r", y_label="pressure", series=tuple(series), ref_lines=refs
    )
    return emit_svg(plot)


def _sweep_payload(config: RunConfig, spec: CavitySpec) -> bytes:
    from .analysis import SweepAxis, sweep

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
    pts = tuple((param, abs(res.f_x)) for param, res in table.points if math.isfinite(res.f_x))
    # a table of flagged rows only reports no force, and a plot needs 2 points
    if len(pts) < (2 if config.format == "svg" else 1):
        need = "sweep SVG needs 2 rows" if config.format == "svg" else "sweep needs a row"
        raise TrapcavError(f"{need} with a finite f_x, {len(pts)} of {len(table.points)} have one")
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
    # only csv and svg output loads the emitter
    from .emit import PlotSpec, emit_csv, emit_svg

    if config.format == "csv":
        return emit_csv(table)
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
                        "message": "the larger rounding bound exceeds --tol times the larger force component",
                        **_force_dict(result),
                    }
                )
                return 1
            payload = _json_bytes({"spec": _spec_dict(spec), **_force_dict(result)})
        elif config.command == "sweep":
            payload = _sweep_payload(config, spec)
        elif config.command == "optimize":
            from .analysis import optimize_phi

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
