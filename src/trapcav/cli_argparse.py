"""The command line's argparse path: help, --config and every usage error.

:func:`trapcav.cli.parse_args` imports this module only for an argv that
its flag table declines, so a well-formed command line compiles none of
it.  It builds the parsers from that table, imported from :mod:`trapcav.cli`.
"""

import argparse
import json

from .cli import _COMMANDS, RunConfig, _flags, _float_list, _in_window


def _checked(convert, ok, rule: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built from the cli's ``_FLAGS``."""
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


def _config_tokens(name: str, command: argparse.ArgumentParser, path: str) -> list[str]:
    """The --config file as ``--flag=value`` tokens for subcommand ``name``.

    Keys that are no ``RunConfig`` field are rejected; fields that are
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


def parse(argv: list[str]) -> RunConfig:
    """``argv`` and any --config file parsed by argparse, as :func:`trapcav.cli.parse_args` says."""
    parser, commands = build_parser()
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
