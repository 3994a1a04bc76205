"""Command-line front end and its JSON and CSV output; :mod:`~trapcav.emit` draws the SVG.

Subcommands: profile, force, sweep, optimize, verify.  Each takes the
cavity flags, --out, --config and --format, and only the other flags it
reads; ``_FLAGS`` lists them, and ``trapcav CMD -h`` prints them.  Angles
are degrees on the command line and radians everywhere inside.  Exit codes:
0 success, 1 numerical failure (reported as a JSON object on stderr), 2
usage error (an --out path that cannot be written included).

Every flag is declared once, in ``_FLAGS``, and a command line is read on
one of two paths.  A well-formed one, with only full flag names and valid
values, is read from that table without importing argparse.  argparse,
whose parsers are built from the same table, reads every other one: help,
--config, abbreviations and every usage error, so each help, usage and
error text is argparse's own.
"""

import json
import math
import os
import sys
import typing

from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import ForceResult, pressure_profile, total_forces
from .geometry import PHI_TOL_FLOOR, REL_TOL_FLOOR, CavitySpec, Units, pressure_prefactor, validate

if typing.TYPE_CHECKING:
    import argparse

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


class _Flag(typing.NamedTuple):
    """One flag of the subcommands in ``commands``.

    ``convert`` turns its text into the value (None keeps the text; bool
    makes the flag a --name/--no-name pair that takes no value), and a
    ``check`` ``(ok, rule)`` then requires ``ok(value)``; argparse states
    ``rule`` where ``ok`` fails.  ``cavity`` puts the flag in the help's
    cavity group.
    """

    name: str
    commands: tuple[str, ...]
    convert: object = None
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None
    check: tuple | None = None
    cavity: bool = False

    @property
    def field(self) -> str:
        """The :class:`RunConfig` field, named as argparse names the flag's dest."""
        return self.name[2:].replace("-", "_")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _at_least(floor: float) -> tuple:
    return (lambda v: floor <= v < math.inf), f"must be at least {floor!r} and finite"


_EVERY = tuple(_COMMANDS)
# every flag, in the order each subcommand's help lists them; the floors of
# --tol and --phi-tol-deg are those of total_forces and optimize_phi, so
# that a flag or config value under them is refused where it is read
_FLAGS = (
    _Flag("--a", _EVERY, float, required=True, help="gap at the narrow end (m in SI mode)", cavity=True),
    _Flag("--R", _EVERY, float, required=True, help="wing length", cavity=True),
    _Flag("--L", _EVERY, float, 1.0, help="cavity width (default %(default)s)", cavity=True),
    _Flag("--phi-deg", _EVERY, float, 0.0, help="half-opening angle, degrees (default %(default)s)",
          cavity=True),
    _Flag("--units", _EVERY, None, "si", ("si", "reduced"), help="unit system (default %(default)s)",
          cavity=True),
    _Flag("--out", _EVERY, help="output path (default stdout)"),
    _Flag("--config", _EVERY, help="JSON file with the same fields; explicit flags win"),
    _Flag("--format", _EVERY),  # its choices and default are the subcommand's formats
    _Flag("--tol", ("force", "sweep"), float, 1e-9, check=_at_least(REL_TOL_FLOOR),
          help="relative tolerance a force's rounding bound must meet (default %(default)s)"),
    _Flag("--wing-count", ("force", "sweep"), int, 1, (1, 2), help="wings to report (default %(default)s)"),
    _Flag("--samples", ("profile",), int, 256, check=(lambda v: v >= 2, "must be at least 2"),
          help="sample count (default %(default)s)"),
    _Flag("--quantity", ("profile",), None, "both", ("px", "pz", "both")),
    _Flag("--reference-classical", ("profile",), bool, False,
          help="add the parallel-plate reference level to SVG output"),
    _Flag("--workers", ("sweep",), int, 1, check=(lambda v: v >= 1, "must be at least 1"),
          help="accepted for compatibility (>= 1, default %(default)s); "
          "sweep rows run one after another"),
    _Flag("--axis", ("sweep",), None, None, ("phi", "R"), required=True),
    _Flag("--values", ("sweep",), _float_list, required=True,
          help="comma-separated grid; degrees when axis=phi",
          check=(lambda v: len(v) > 0 and all(b > a for a, b in zip(v, v[1:])),
                 "must be a non-empty, strictly increasing list")),
    _Flag("--phi-lo-deg", ("optimize",), float, required=True),
    _Flag("--phi-hi-deg", ("optimize",), float, required=True),
    _Flag("--phi-tol-deg", ("optimize",), float, math.degrees(1e-5),
          check=_at_least(math.degrees(PHI_TOL_FLOOR))),
)


# a fully resolved invocation: the subcommand, then one field per flag but
# --config, in _FLAGS order; a --config file holds the same fields, and a
# field the subcommand takes no flag for is None
RunConfig = typing.NamedTuple(
    "RunConfig", [("command", str), *((flag.field, typing.Any) for flag in _FLAGS if flag.name != "--config")]
)


def _flags(command: str) -> list[_Flag]:
    """The flags ``command`` takes, in ``_FLAGS`` order; --format offers its formats."""
    formats = _COMMANDS[command][1]
    flags = [flag for flag in _FLAGS if command in flag.commands]
    return [f._replace(choices=formats, default=formats[0]) if f.name == "--format" else f for f in flags]


def _in_window(config: RunConfig) -> bool:
    return config.command != "optimize" or 0.0 < config.phi_lo_deg < config.phi_hi_deg < 45.0


def _read(argv: list[str]) -> RunConfig | None:
    """``argv`` read from ``_FLAGS`` alone, or None where argparse must read it.

    Only ``--flag value`` and ``--flag=value`` tokens with the full name of
    one of the subcommand's flags are read, with argparse's converters,
    checks, choices and required flags; help, --config, an abbreviation, a
    value that starts with ``-``, ``--`` and any failed check return None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = dict.fromkeys(RunConfig._fields)
    values["command"] = argv[0]
    # every flag but --config, which only argparse reads; a bool is a pair
    names = {flag.name: flag for flag in _flags(argv[0]) if flag.field in values}
    names.update({f"--no-{flag.name[2:]}": flag for flag in names.values() if flag.convert is bool})
    values.update({flag.field: flag.default for flag in names.values()})
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        flag = names.get(name)
        if flag is None or flag.convert is bool and eq:
            return None
        if flag.convert is bool:
            value = name == flag.name
        else:
            text = text if eq else next(tokens, "-")  # "-" where no value follows
            try:
                value = text if flag.convert is None else flag.convert(text)
            except ValueError:
                return None
            check, choices = flag.check, flag.choices
            if text.startswith("-") or check and not check[0](value) or choices and value not in choices:
                return None
        values[flag.field] = value
    config = RunConfig(**values)
    # no flag's value is None, so a required one that is None was not given
    given = (values[flag.field] is not None for flag in names.values() if flag.required)
    return config if all(given) and _in_window(config) else None


def _checked(convert, ok, rule: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``."""
    import argparse

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _build_parser() -> "tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]":
    """The parser and its subcommand parsers by name, built from ``_FLAGS``."""
    import argparse

    description = "Casimir compression and expulsion forces on open trapezoid cavities"
    parser = argparse.ArgumentParser(prog="trapcav", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, (summary, _) in _COMMANDS.items():
        command = commands[name] = sub.add_parser(name, help=summary)
        cavity = command.add_argument_group("cavity")
        for flag in _flags(name):
            kwargs = {"default": flag.default, "required": flag.required, "help": flag.help}
            if flag.convert is bool:
                kwargs["action"] = argparse.BooleanOptionalAction
            else:
                convert = flag.convert if flag.check is None else _checked(flag.convert, *flag.check)
                kwargs.update(choices=flag.choices, type=convert)
            (cavity if flag.cavity else command).add_argument(flag.name, **kwargs)
    return parser, commands


def _config_tokens(name: str, command: "argparse.ArgumentParser", path: str) -> list[str]:
    """The --config file as ``--flag=value`` tokens for subcommand ``name``.

    Keys that are no :class:`RunConfig` field are rejected; fields that are
    None or that belong to another subcommand are dropped.  A boolean goes
    out as its flag or the flag's ``--no-`` form, a --values list is joined
    with commas, and an integral float for an integer flag (``256.0``) is
    passed as its integer.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        command.error(f"--config: cannot read {path!r}: {err}")
    except json.JSONDecodeError as err:
        command.error(f"--config: {path!r} is not valid JSON: {err}")
    if not isinstance(data, dict):
        command.error(f"--config: {path!r} must contain a JSON object")
    unknown = sorted(set(data) - set(RunConfig._fields))
    if unknown:
        command.error(f"--config: unknown keys {', '.join(unknown)}")
    flags = {flag.field: flag for flag in _flags(name)}
    tokens = []
    for key, value in data.items():
        flag = flags.get(key)
        if flag is None or value is None:
            continue
        if flag.convert is bool and isinstance(value, bool):
            tokens.append(flag.name if value else f"--no-{flag.name[2:]}")
        elif flag.convert is _float_list and isinstance(value, list):
            tokens.append(f"{flag.name}={','.join(map(str, value))}")
        elif flag.convert is int and isinstance(value, float) and value.is_integer():
            # JSON Schema's "integer" takes 256.0 as well as 256
            tokens.append(f"{flag.name}={int(value)}")
        else:
            tokens.append(f"{flag.name}={value}")
    return tokens


def _parse_with_argparse(argv: list[str]) -> RunConfig:
    """``argv`` and any --config file parsed by argparse, as :func:`parse_args` says."""
    import argparse

    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        command, flags = commands[argv[0]], argv[1:]
        pre = argparse.ArgumentParser(prog=command.prog, add_help=False, exit_on_error=False)
        pre.add_argument("-h", "--help", action="store_true")
        pre.add_argument("--config")
        try:
            found, _ = pre.parse_known_args(flags)
        except argparse.ArgumentError as err:  # --config without its path, say
            command.error(str(err))
        if found.config is not None and not found.help:
            flags = [*_config_tokens(argv[0], command, found.config), *flags]
        ns = command.parse_args(flags, argparse.Namespace(command=argv[0]))
    else:
        ns = parser.parse_args(argv)
        command = commands[ns.command]
    config = RunConfig(**{name: getattr(ns, name, None) for name in RunConfig._fields})
    if not _in_window(config):
        command.error("optimize needs 0 < --phi-lo-deg < --phi-hi-deg < 45")
    return config


def parse_args(argv: list[str]) -> RunConfig:
    """Resolve argv (and any --config file) into a :class:`RunConfig`.

    A well-formed argv, a subcommand followed by full flag names and valid
    values, is read from the flag table without argparse.  Every other
    argv goes to argparse, which parses it again from the start.  There the
    invoked subcommand's own parser parses its argv, so every usage error
    names the subcommand; the root parser takes an argv that does not start
    with one (help, or no or an unknown subcommand).  The --config file is
    read first and its fields become ``--flag=value`` tokens placed before
    the flags, so one parser checks file and flags alike and, keeping the
    last value given, lets an explicit flag win over the file and the file
    over the default.  The subcommand always comes from argv.  Usage
    problems, bad config values included, exit with code 2 and a diagnostic
    naming the offending flag.
    """
    config = _read(argv)
    return _parse_with_argparse(argv) if config is None else config


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


def _json_safe(v):
    # JSON has no inf or NaN: they go out as the strings "inf", "-inf" and "nan"
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_json_safe(x) for x in v]
    return str(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _fmt(x: float | bool) -> str:
    return str(x).lower() if isinstance(x, bool) else format(x, ".17g")


def _csv_bytes(header: str, rows: list[dict]) -> bytes:
    """CSV of the ``header`` columns of ``rows``, one line per row.

    Floats have 17 significant digits and booleans read true or false;
    lines end in \\n, and no locale applies.
    """
    keys = header.split(",")
    lines = [header, *(",".join(_fmt(row[key]) for key in keys) for row in rows)]
    return ("\n".join(lines) + "\n").encode("ascii")


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False) + "\n")


def _error_dict(err: Exception) -> dict:
    payload = {"error": type(err).__name__, "message": str(err)}
    for attr in ("field", "value", "name"):
        if hasattr(err, attr):
            payload[attr] = getattr(err, attr)
    return payload


def _write_output(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    # only --out needs tempfile; the other runs skip its import
    import tempfile

    # the mode that open(out, "w") would give: a replaced file keeps its
    # own, a new one gets 0666 less the umask (mkstemp alone makes 0600)
    try:
        mode = os.stat(out).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".trapcav-tmp-")
    try:
        # a buffered file writes every byte or raises, where one os.write
        # may write fewer; its close closes fd
        with open(fd, "wb") as f:
            os.chmod(tmp, mode)
            f.write(payload)
        os.replace(tmp, out)
    except BaseException:
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
    samples = [s._asdict() for s in profile.samples]
    if config.format == "json":
        return _json_bytes({"spec": _spec_dict(spec), "samples": samples})
    if config.format == "csv":
        return _csv_bytes("r,p_x,p_z", samples)
    # only svg output loads the emitter
    from .emit import PlotSpec, emit_svg

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
    points = [{"param": param, **_force_dict(res)} for param, res in table.points]
    if config.format == "json":
        return _json_bytes({"axis": table.axis.value, "base": _spec_dict(spec), "points": points})
    if config.format == "csv":
        return _csv_bytes("param,f_x,f_z,err_x,err_z,converged", points)
    # only svg output loads the emitter
    from .emit import PlotSpec, emit_svg

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
    except (InvalidCavity, OutOfRange, ValueError) as err:
        _emit_error(_error_dict(err))
        return 2
    except TrapcavError as err:
        _emit_error(_error_dict(err))
        return 1
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
