"""Command-line front end: the flag table, its reader and the force command's JSON.

Subcommands: profile, force, sweep, optimize, verify.  Each takes the
cavity flags, --out, --config and --format, and only the other flags it
reads; ``_FLAGS`` lists them, and ``trapcav CMD -h`` prints them.  Angles
are degrees on the command line and radians everywhere inside.  Exit codes:
0 success, 1 numerical failure (reported as a JSON object on stderr), 2
usage error (an --out path or a stdout that cannot be written included).

Every flag is declared once, in ``_FLAGS``, and a command line is read on
one of two paths.  A well-formed one, with only full flag names and valid
values, is read from that table without importing argparse.  argparse,
whose parsers :mod:`~trapcav.cli_argparse` builds from the same table,
reads every other one: help, --config, abbreviations and every usage
error, so each help, usage and error text is argparse's own.

:func:`run` runs the force command and writes its JSON here, by
:func:`_json`, which writes json.dumps's bytes without loading :mod:`json`;
:mod:`~trapcav.cli_payloads` runs the other commands and writes their JSON,
CSV and SVG, and :mod:`~trapcav.cli_out` writes an --out path.  These
modules load only when their code runs, and the first two import what they
share from ``trapcav.cli``; under ``python -m trapcav.cli`` this module
registers itself under that name too (PEP 499), so it is compiled and its
flag table built once.
"""

import errno
import gc
import math
import os
import sys
import typing

from .errors import InvalidCavity, OutOfRange, TrapcavError
from .forces import total_forces
from .spec import REL_TOL_FLOOR, CavitySpec, Units, validate

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
# once per call, not twice; the profile and verify commands of
# cli_payloads call pressure_profile and verify_suite by these names
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


def _json(v, pad: str | None = None) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, allow_nan=False)`` writes it.

    A ``pad`` gives the text of ``indent=2``: it is the newline and indent
    that ``v`` itself starts on, "\\n" at the top.  Keys are strings.  JSON
    has no inf or NaN, so a float that is not finite goes out as the string
    "inf", "-inf" or "nan".  A string of printable ASCII is escaped here,
    and any other by :mod:`json`, which loads only then.
    """
    if isinstance(v, str):
        if v.isascii() and v.isprintable():
            return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        import json

        return json.dumps(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return text if math.isfinite(v) else f'"{text}"'
    inner = pad and pad + "  "
    if isinstance(v, dict):
        items, ends = [f"{_json(key)}: {_json(x, inner)}" for key, x in sorted(v.items())], "{}"
    elif isinstance(v, (list, tuple)):
        items, ends = [_json(x, inner) for x in v], "[]"
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if not items:
        return ends
    if pad is None:
        return ends[0] + ", ".join(items) + ends[1]
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _json_bytes(payload: dict) -> bytes:
    return (_json(payload, "\n") + "\n").encode("ascii")


def _emit_error(payload: dict) -> None:
    sys.stderr.write(_json(payload) + "\n")


def _error_dict(err: Exception) -> dict:
    payload = {"error": type(err).__name__, "message": str(err)}
    for attr in ("field", "value", "name"):
        if hasattr(err, attr):
            payload[attr] = getattr(err, attr)
    return payload


def _write_output(payload: bytes, out: str | None) -> None:
    if out is not None:
        # only --out loads the code that writes a path
        from .cli_out import write_out

        write_out(payload, out)
        return
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()


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
        if config.command == "force":
            result = total_forces(spec, config.tol, wing_count=config.wing_count)
            payload, code = _json_bytes({**result._asdict(), "spec": spec._asdict()}), 0
        else:
            from .cli_payloads import run_command

            payload, code = run_command(config, spec)
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
    """Run one command line and return its exit code.

    With ``argv`` None, main reads the process's own command line, as
    ``python -m trapcav.cli`` and the ``trapcav`` console script call it.
    That process ends when main returns, so main first freezes the heap
    that start-up made (:func:`gc.freeze`): the collections of the
    interpreter's exit then skip those objects, which they would traverse
    and never free.  A caller that passes ``argv`` (a test, a library)
    keeps running, and its heap is left as it is.
    """
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    try:
        config = parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    return run(config)


if __name__ == "__main__":
    # python -m runs this file as __main__; bound as trapcav.cli too, it is
    # the module that cli_argparse and cli_payloads import
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
