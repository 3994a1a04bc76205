"""Command-line front end: the flag table, its reader and the force command's JSON.

Subcommands: profile, force, sweep, optimize, verify.  Each takes the
cavity flags, --out, --config and --format, and only the other flags it
reads; ``_FLAGS`` lists them, and ``trapcav CMD -h`` prints them.  Angles
are degrees on the command line and radians everywhere inside.  Exit codes:
0 success, 1 numerical failure (reported as a JSON object on stderr), 2
usage error (an --out path that cannot be written included).

Every flag is declared once, in ``_FLAGS``, and a command line is read on
one of two paths.  A well-formed one, with only full flag names and valid
values, is read from that table without importing argparse.  argparse,
whose parsers :mod:`~trapcav.cli_argparse` builds from the same table,
reads every other one: help, --config, abbreviations and every usage
error, so each help, usage and error text is argparse's own.

:func:`run` computes every command's result; the force command's JSON is
written here, and :mod:`~trapcav.cli_payloads` writes the other commands'
JSON, CSV and SVG.  Both modules load only when their code runs and import
what they share from ``trapcav.cli``; under ``python -m trapcav.cli`` this
module registers itself under that name too (PEP 499), so it is compiled
and its flag table built once.
"""

import json
import math
import os
import sys
import typing

from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import total_forces
from .geometry import REL_TOL_FLOOR, CavitySpec, Units, validate

if typing.TYPE_CHECKING:
    from .kernels import PressureProfile

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
# once per call, not twice; profile and verify call pressure_profile and
# verify_suite by these names
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


def pressure_profile(spec: CavitySpec, n: int) -> "PressureProfile":
    """:func:`trapcav.kernels.pressure_profile`; the kernels load on the first call."""
    from .kernels import pressure_profile

    return pressure_profile(spec, n)


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


#: Smallest angle tolerance, in radians, that --phi-tol-deg accepts (in
#: degrees).  The flag is only checked: optimize resolves phi* to a few
#: ulps, below every accepted value, so it changes no output.
PHI_TOL_FLOOR = 1e-6


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _at_least(floor: float) -> tuple:
    return (lambda v: floor <= v < math.inf), f"must be at least {floor!r} and finite"


_EVERY = tuple(_COMMANDS)
# every flag, in the order each subcommand's help lists them; the floor of
# --tol is that of total_forces, so that a flag or config value under it is
# refused where it is read, and --phi-tol-deg has PHI_TOL_FLOOR's
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
    if config is None:
        from .cli_argparse import parse

        config = parse(argv)
    return config


def _json_safe(v):
    # JSON has no inf or NaN: they go out as the strings "inf", "-inf" and "nan"
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_json_safe(x) for x in v]
    return str(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


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


def run(config: RunConfig) -> int:
    """Execute a resolved config; returns the process exit code."""
    try:
        spec = _build_spec(config)
        validate(spec)
        if config.command == "profile":
            result = pressure_profile(spec, config.samples)
        elif config.command == "force":
            result = total_forces(spec, config.tol, wing_count=config.wing_count)
        elif config.command == "sweep":
            from .analysis import sweep

            values = [math.radians(v) for v in config.values] if config.axis == "phi" else list(config.values)
            result = sweep(
                spec,
                config.axis,
                values,
                rel_tol=config.tol,
                wing_count=config.wing_count,
                workers=config.workers,
            )
        elif config.command == "optimize":
            from .analysis import optimize_phi

            result = optimize_phi(spec, math.radians(config.phi_lo_deg), math.radians(config.phi_hi_deg))
        elif config.command == "verify":
            result = verify_suite(spec)
        else:
            raise ValueError(f"unknown command {config.command!r}")
        if config.command == "force":
            payload, code = _json_bytes({**result._asdict(), "spec": spec._asdict()}), 0
        else:
            from .cli_payloads import render

            payload, code = render(config, spec, result)
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
    # python -m runs this file as __main__; bound as trapcav.cli too, it is
    # the module that cli_argparse and cli_payloads import
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
