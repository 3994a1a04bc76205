import argparse
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
import hypothesis.strategies as st
import jsonschema
import pytest

from trapcav import CavitySpec, ForceResult, SweepAxis, SweepTable, Units, sweep
from trapcav.cli import PHI_TOL_FLOOR, RunConfig, main, parse_args
import trapcav.cli
import trapcav.cli_argparse
import trapcav.kernels
from trapcav.emit import PlotSpec, emit_svg
from trapcav.geometry import REL_TOL_FLOOR

REDUCED_ARGS = ["--a", "1", "--R", "10", "--units", "reduced"]
# every flag that all subcommands take, at a value other than its default
SHARED_ARGS = [
    "--a", "4e-07", "--R", "4e-06", "--L", "2.5", "--phi-deg", "3", "--units", "si", "--out", "run.out",
]
# the shared flags and each run flag that the subcommand reads, all off their defaults
PROFILE_ARGS = [*SHARED_ARGS, "--samples", "17"]
FORCE_ARGS = [*SHARED_ARGS, "--tol", "1e-10", "--wing-count", "2"]
SWEEP_ARGS = [*FORCE_ARGS, "--workers", "3"]
# flags and values that make each subcommand's run complete
COMPLETE_ARGS = {
    "profile": REDUCED_ARGS,
    "force": REDUCED_ARGS,
    "sweep": [*REDUCED_ARGS, "--axis", "phi", "--values", "1,2"],
    "optimize": [*REDUCED_ARGS, "--phi-lo-deg", "1", "--phi-hi-deg", "20"],
    "verify": REDUCED_ARGS,
}
# the run flags that a subcommand does not read, each with a valid value
UNREAD_FLAGS = [
    ("profile", "--tol", "1e-9"),
    ("profile", "--wing-count", "2"),
    ("profile", "--workers", "9"),
    ("force", "--samples", "5"),
    ("force", "--workers", "9"),
    ("sweep", "--samples", "5"),
    ("optimize", "--tol", "1e-12"),
    ("optimize", "--samples", "5"),
    ("optimize", "--wing-count", "2"),
    ("optimize", "--workers", "9"),
    ("verify", "--tol", "1e-12"),
    ("verify", "--samples", "5"),
    ("verify", "--wing-count", "2"),
    ("verify", "--workers", "9"),
]


def load_schema(name: str) -> dict:
    path = resources.files("trapcav") / "schemas" / name
    return json.loads(path.read_text(encoding="utf-8"))


def test_parse_defaults():
    cfg = parse_args(["force", *REDUCED_ARGS])
    assert cfg.command == "force"
    assert cfg.a == 1.0 and cfg.R == 10.0 and cfg.L == 1.0
    assert cfg.phi_deg == 0.0
    assert cfg.units == "reduced"
    assert cfg.tol == 1e-9
    assert cfg.format == "json"
    assert cfg.out is None
    assert cfg.axis is None and cfg.values is None


def test_parse_profile_defaults_to_csv():
    cfg = parse_args(["profile", *REDUCED_ARGS])
    assert cfg.format == "csv"
    assert cfg.samples == 256
    assert cfg.quantity == "both"
    assert cfg.reference_classical is False


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", *REDUCED_ARGS, "--format", "svg", "--quantity", "px",
         "--reference-classical", "--samples", "32", "--out", "p.svg"],
        ["force", "--a", "4e-07", "--R", "4e-06", "--phi-deg", "1.0", "--tol", "1e-08"],
        ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "0.5,1,2,4",
         "--workers", "4", "--format", "csv"],
        ["sweep", "--a", "4e-07", "--R", "1e-06", "--axis", "R",
         "--values", "1e-06,2e-06,4e-06", "--format", "json"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "30",
         "--phi-tol-deg", "0.001"],
        ["verify", *REDUCED_ARGS],
        # each subcommand's every field away from its default, and each format
        ["profile", *PROFILE_ARGS, "--format", "json", "--quantity", "pz", "--no-reference-classical"],
        ["profile", *PROFILE_ARGS, "--format", "csv", "--quantity", "px", "--reference-classical"],
        ["force", *FORCE_ARGS, "--format", "json"],
        ["sweep", *SWEEP_ARGS, "--axis", "R", "--values", "1e-06,2.5e-06", "--format", "svg"],
        ["optimize", *SHARED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "30",
         "--phi-tol-deg", "0.001", "--format", "json"],
        ["verify", *SHARED_ARGS, "--format", "json"],
    ],
)
def test_render_round_trip(argv, tmp_path):
    # the config rendered as a --config file of every field reproduces the
    # run, so each field's token form parses back to its value
    cfg = parse_args(argv)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg._asdict()))
    assert parse_args([cfg.command, "--config", str(path)]) == cfg


def test_config_file_merge(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"a": 1.0, "R": 10.0, "units": "reduced", "phi_deg": 5.0}))
    cfg = parse_args(["force", "--config", str(path)])
    assert cfg.a == 1.0 and cfg.phi_deg == 5.0
    # explicit flag wins over the file
    cfg = parse_args(["force", "--config", str(path), "--phi-deg", "2.0"])
    assert cfg.phi_deg == 2.0


def test_each_subcommand_takes_only_the_flags_it_reads():
    shared = {"-h", "--help", "--a", "--R", "--L", "--phi-deg", "--units", "--out", "--config", "--format"}
    own = {
        "profile": {"--samples", "--quantity", "--reference-classical", "--no-reference-classical"},
        "force": {"--tol", "--wing-count"},
        "sweep": {"--tol", "--wing-count", "--workers", "--axis", "--values"},
        "optimize": {"--phi-lo-deg", "--phi-hi-deg", "--phi-tol-deg"},
        "verify": set(),
    }
    _, commands = trapcav.cli_argparse.build_parser()
    flags = {name: {f for a in command._actions for f in a.option_strings} for name, command in commands.items()}
    assert flags == {name: shared | extra for name, extra in own.items()}


def test_config_file_command_is_ignored(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "force", "a": 1.0, "R": 10.0, "units": "reduced"}))
    cfg = parse_args(["verify", "--config", str(path)])
    assert cfg.command == "verify"


REJECTED_CONFIGS = [
    ("force", "{not json"),
    ("force", json.dumps([1, 2])),
    ("force", json.dumps({"a": 1.0, "mystery": 5})),
    ("force", json.dumps({"a": "x"})),
    ("profile", json.dumps({"samples": "many"})),
    ("force", json.dumps({"tol": 0})),
    ("force", json.dumps({"tol": 1e-15})),
]


@pytest.mark.parametrize("command, content", REJECTED_CONFIGS, ids=[c for _, c in REJECTED_CONFIGS])
def test_config_file_rejected(tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    # the flags make the run complete, so only the file can fail it; a file
    # value is checked even where a flag overrides it
    with pytest.raises(SystemExit) as err:
        parse_args([command, "--config", str(path), *REDUCED_ARGS])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, data",
    [
        (["profile", *REDUCED_ARGS], {"reference_classical": "yes"}),
        (["sweep", *REDUCED_ARGS, "--axis", "R"], {"values": [2, 1]}),
        (
            ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "1", "--phi-hi-deg", "20"],
            {"phi_tol_deg": 5e-5},
        ),
    ],
)
def test_config_value_rejected_by_its_subcommand(tmp_path, argv, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        parse_args([*argv, "--config", str(path)])
    assert err.value.code == 2


def test_config_integral_floats_are_integers(tmp_path):
    # the schema's "integer" type accepts 256.0, so the CLI does as well
    def config(command, data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        return parse_args([command, *COMPLETE_ARGS[command], "--config", str(path)])

    profile = config("profile", {"samples": 256.0})
    assert profile == config("profile", {"samples": 256}) and profile.samples == 256
    swp = config("sweep", {"wing_count": 2.0, "workers": 3.0})
    assert swp == config("sweep", {"wing_count": 2, "workers": 3})
    assert swp.wing_count == 2 and swp.workers == 3
    for command, bad in (("profile", {"samples": 256.5}), ("sweep", {"wing_count": 1.5})):
        with pytest.raises(SystemExit) as err:
            config(command, bad)
        assert err.value.code == 2


def test_config_keys_of_other_subcommands_are_ignored(tmp_path):
    path = tmp_path / "run.json"
    data = {"a": 1.0, "R": 10.0, "units": "reduced", "axis": "phi", "values": [1, 2]}
    path.write_text(json.dumps(data))
    cfg = parse_args(["force", "--config", str(path)])
    assert cfg.a == 1.0 and cfg.units == "reduced"
    assert cfg.axis is None and cfg.values is None
    assert parse_args(["sweep", "--config", str(path)]).values == (1.0, 2.0)


def test_config_run_keys_the_subcommand_does_not_read_are_ignored(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tol": 1e-12}))
    assert parse_args(["verify", *REDUCED_ARGS, "--config", str(path)]).tol is None
    assert parse_args(["force", *REDUCED_ARGS, "--config", str(path)]).tol == 1e-12


def test_config_boolean_loses_to_flag(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"reference_classical": True}))
    cfg = parse_args(["profile", *REDUCED_ARGS, "--config", str(path)])
    assert cfg.reference_classical is True
    cfg = parse_args(["profile", *REDUCED_ARGS, "--config", str(path), "--no-reference-classical"])
    assert cfg.reference_classical is False


def test_config_schema_matches_parser():
    props = load_schema("config.schema.json")["properties"]
    assert set(props) == set(RunConfig._fields)
    _, commands = trapcav.cli_argparse.build_parser()
    actions = {a.dest: a for command in commands.values() for a in command._actions}
    # every field but the subcommand itself is some subcommand's flag
    assert set(props) - {"command"} <= set(actions)
    for field in ("units", "quantity", "axis", "wing_count"):
        assert props[field]["enum"] == list(actions[field].choices)
    # the tolerance floors of total_forces and of --phi-tol-deg (in degrees)
    for field, floor in (("tol", REL_TOL_FLOOR), ("phi_tol_deg", math.degrees(PHI_TOL_FLOOR))):
        assert props[field]["minimum"] == floor
        assert actions[field].type(repr(floor)) == floor
        with pytest.raises(argparse.ArgumentTypeError):
            actions[field].type(repr(math.nextafter(floor, 0.0)))


@pytest.mark.parametrize(
    "argv",
    [
        ["force", "--R", "10"],
        ["force", "--a", "1"],
        ["force", *REDUCED_ARGS, "--format", "csv"],
        ["profile", *REDUCED_ARGS, "--samples", "1"],
        ["sweep", *REDUCED_ARGS, "--axis", "phi"],
        ["sweep", *REDUCED_ARGS, "--values", "1,2"],
        ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "2,1"],
        ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,1"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "5"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "5", "--phi-hi-deg", "50"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0", "--phi-hi-deg", "30"],
        ["force", *REDUCED_ARGS, "--tol", "0"],
        ["force", *REDUCED_ARGS, "--units", "cgs"],
        [],
        ["force", *REDUCED_ARGS, "--tol", "1e-15"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "1", "--phi-hi-deg", "20", "--phi-tol-deg", "5e-5"],
        # a run flag given to a subcommand that does not read it
        *([command, *COMPLETE_ARGS[command], flag, value] for command, flag, value in UNREAD_FLAGS),
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2


# a usage error that only the subcommand's own parser sees: a run flag it
# does not read, a bad --config file and the optimize window
SUBCOMMAND_USAGE_ERRORS = [
    *([command, *COMPLETE_ARGS[command], flag, value] for command, flag, value in UNREAD_FLAGS),
    ["force", *REDUCED_ARGS, "--config", "missing.json"],
    ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "20", "--phi-hi-deg", "1"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_USAGE_ERRORS)
def test_usage_errors_name_the_subcommand(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: trapcav {argv[0]} ")
    assert f"\ntrapcav {argv[0]}: error: " in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--config"], "argument --config: expected one argument"),
        (["--config="], "--config: cannot read ''"),
    ],
)
def test_config_flag_errors_print_the_full_usage(flags, message, capsys):
    # a --config without a path, or with an empty one, is a usage error of
    # the subcommand, whose usage lists all of its flags
    assert main(["force", *REDUCED_ARGS, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: trapcav force [-h] --a A --R R ")
    assert f"\ntrapcav force: error: {message}" in captured.err


# the argv forms of the cli benchmark's operations and of the CI smoke steps
WELL_FORMED = [
    ["force", "--a", "1e-07", "--R", "3.1e-06", "--L", "1.0", "--phi-deg", "12.5", "--units", "si", "--wing-count", "2"],
    ["profile", "--a", "1.0", "--R", "40.0", "--L", "1.0", "--phi-deg", "0.75", "--units", "reduced",
     "--samples", "64", "--format", "json"],
    ["optimize", "--a", "1.0", "--R", "3.5", "--L", "1.0", "--phi-deg", "0.0", "--units", "reduced",
     "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"],
    ["sweep", "--a", "1.0", "--R", "3.5", "--L", "1.0", "--phi-deg", "0.0", "--units", "reduced",
     "--axis", "phi", "--values", ",".join(repr(0.5 + 19.5 * k / 7) for k in range(8)), "--format", "json"],
    ["verify", "--a", "1.0", "--R", "12.0", "--L", "1.0", "--phi-deg", "17.0", "--units", "reduced"],
    ["force", *REDUCED_ARGS, "--phi-deg", "5"],
    ["sweep", *REDUCED_ARGS, "--axis", "R", "--values", "1e-160,1", "--format", "csv"],
    ["profile", *REDUCED_ARGS, "--phi-deg", "5", "--format", "svg", "--reference-classical"],
    ["profile", *REDUCED_ARGS, "--no-reference-classical", "--quantity=px", "--out=p.csv"],
    ["verify", "--a", "1e-7", "--R", "1e-2", "--phi-deg", "44.7"],
    ["force", *FORCE_ARGS, "--tol=1e-12", "--tol", "1e-11"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_well_formed_argv_is_read_from_the_flag_table(argv):
    # a declined argv costs argparse's import and parsers, so these forms
    # must be read from the table, to the config that argparse reads
    config = trapcav.cli._read(argv)
    assert config is not None
    assert repr(config) == repr(trapcav.cli_argparse.parse(argv))


_, _PARSERS = trapcav.cli_argparse.build_parser()
OWN_FLAGS = {name: sorted(f for a in parser._actions for f in a.option_strings) for name, parser in _PARSERS.items()}
FLAG_TOKENS = sorted({f for flags in OWN_FLAGS.values() for f in flags})
FLAG_TOKENS += ["--ph", "--phi-d", "--c", "--ax", "--un", "--wing", "--bogus", "--"]
VALUE_TOKENS = [
    "1", "4", "0.5", "20", "45", "-1", "-5", "", " 2 ", "nan", "inf", "-inf", "0", "2", "3", "1e-15",
    "1e-09", "256", "1.5", "si", "reduced", "cgs", "json", "csv", "svg", "phi", "R", "px", "both",
    "1,2,3", "3,2,1", "1,,2", "1,1", "-1,2", "x", "-h", "-x",
]


@st.composite
def argvs(draw):
    # a subcommand (or none), most often with the flags that complete its
    # run, and up to two more pieces in any order: a flag with its value,
    # as two tokens or one --flag=value token, or a lone flag or value; a
    # flag is often one of the subcommand's own
    command = draw(st.sampled_from([*COMPLETE_ARGS, "frc"]))
    complete = COMPLETE_ARGS.get(command, REDUCED_ARGS) if draw(st.integers(0, 3)) else []
    own = st.sampled_from(OWN_FLAGS.get(command, FLAG_TOKENS))
    flag = st.one_of(own, st.sampled_from(FLAG_TOKENS))
    pair = st.tuples(flag, st.sampled_from(VALUE_TOKENS))
    lone = st.one_of(flag, st.sampled_from(VALUE_TOKENS)).map(lambda token: [token])
    piece = st.one_of(pair.map(list), pair.map(lambda p: ["=".join(p)]), lone)
    pieces = [complete[i : i + 2] for i in range(0, len(complete), 2)]
    pieces = draw(st.permutations(pieces + draw(st.lists(piece, max_size=2))))
    return [command, *(token for piece in pieces for token in piece)]


@given(argv=argvs())
@example(argv=["profile", *REDUCED_ARGS, "--reference-classical=1"])
@example(argv=["force", *REDUCED_ARGS, "--tol", "1e-15"])
@example(argv=["sweep", *REDUCED_ARGS, "--axis", "R", "--values", "-1,2"])
@settings(max_examples=500, deadline=None)
def test_flag_table_reads_argv_as_argparse_does(argv):
    # the table either declines an argv or reads it to the config that
    # argparse reads (repr compares a NaN field too); an argv that argparse
    # refuses raises SystemExit here
    config = trapcav.cli._read(argv)
    if config is not None:
        assert repr(config) == repr(trapcav.cli_argparse.parse(argv))


def fresh_python(code: str, *argv: str) -> str:
    """The stdout of ``code`` run with ``argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", code, *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


# runs trapcav.cli.main on its arguments, if any, and prints the exit code,
# the numpy, scipy, dataclasses, argparse, gettext, locale, fractions and
# decimal modules then loaded and the trapcav ones
FRESH_MAIN = """
import json, sys
import trapcav, trapcav.cli
code = trapcav.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
unwanted = ("numpy", "scipy", "dataclasses", "argparse", "gettext", "locale", "fractions", "decimal")
loaded = [sorted(m for m in sys.modules if m.split(".")[0] in names) for names in (unwanted, ("trapcav",))]
print(json.dumps([code, *loaded]))
"""


def run_fresh(*argv: str) -> tuple[int, list[str], list[str]]:
    code, unwanted, trapcav_modules = json.loads(fresh_python(FRESH_MAIN, *argv).splitlines()[-1])
    return code, unwanted, trapcav_modules


def test_import_loads_neither_numpy_scipy_nor_dataclasses():
    # every trapcav process pays for what it imports, and numpy alone takes
    # most of a force run's wall time: the package and every command run on
    # plain floats and must leave numpy (and the scipy test extra) unloaded;
    # the records are NamedTuples, so dataclasses (and the inspect, ast and
    # dis it imports) stays unloaded too; a well-formed command line is read
    # without argparse, and without the gettext and locale that it imports;
    # the oracle's exact geometry runs on integers, so no command loads
    # fractions (or the decimal and numbers that it imports)
    sweep_args = ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5,10,20"]
    profile_args = ["profile", *REDUCED_ARGS, "--phi-deg", "5", "--samples", "9"]
    for argv in (
        [],
        ["force", "--a", "4e-7", "--R", "4e-6", "--phi-deg", "5", "--wing-count", "2"],
        ["force", *REDUCED_ARGS, "--phi-deg", "5"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"],
        *([*sweep_args, "--format", fmt] for fmt in ("json", "csv", "svg")),
        *([*profile_args, "--format", fmt] for fmt in ("json", "csv")),
        ["profile", *REDUCED_ARGS, "--samples", "9", "--format", "svg", "--reference-classical"],
        ["verify", *REDUCED_ARGS, "--phi-deg", "5"],
    ):
        assert run_fresh(*argv)[:2] == (0, []), argv
    code, unwanted, _ = run_fresh("force", "--a", "1")
    assert code == 2 and "argparse" in unwanted


# what importing trapcav.cli loads: the package, the errors, the cavity spec
# and the closed-form forces
CLI_MODULES = ["trapcav", "trapcav.cli", "trapcav.errors", "trapcav.forces", "trapcav.geometry"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], []),
        (["force", *REDUCED_ARGS, "--phi-deg", "5"], []),
        (["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"], ["analysis", "cli_payloads"]),
        (["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5", "--format", "json"], ["analysis", "cli_payloads"]),
        (["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5", "--format", "csv"], ["analysis", "cli_payloads"]),
        (
            ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5", "--format", "svg"],
            ["analysis", "cli_payloads", "emit"],
        ),
        (["profile", *REDUCED_ARGS, "--samples", "9", "--format", "json"], ["cli_payloads", "kernels"]),
        (["profile", *REDUCED_ARGS, "--samples", "9", "--format", "csv"], ["cli_payloads", "kernels"]),
        (
            ["profile", *REDUCED_ARGS, "--samples", "9", "--format", "svg", "--reference-classical"],
            ["cli_payloads", "emit", "kernels"],
        ),
        (["verify", *REDUCED_ARGS, "--phi-deg", "5"], ["cli_payloads", "kernels", "oracle"]),
        (["force", "--a", "1"], ["cli_argparse"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    # a trapcav process compiles every module it imports (no bytecode cache
    # where PYTHONDONTWRITEBYTECODE is set), so a command loads no module
    # that it does not run: force needs only what importing trapcav.cli
    # loads, the other commands' output loads with them, and the argparse
    # path only with an argv that the flag table declines, a usage error here
    code, _, loaded = run_fresh(*argv)
    assert code == (2 if "cli_argparse" in extra else 0)
    assert loaded == sorted(CLI_MODULES + [f"trapcav.{name}" for name in extra])


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["force", "--a", "1"], 2),
        (["--help"], 0),
        (["sweep", "--config", "cfg.json"], 0),
        (["profile", *REDUCED_ARGS, "--samples", "9", "--format", "svg", "--reference-classical"], 0),
        (["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"], 0),
        (["verify", *REDUCED_ARGS, "--phi-deg", "5"], 0),
        (["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5", "--format", "csv"], 0),
    ],
)
def test_module_run_compiles_the_cli_once(argv, exit_code, tmp_path):
    # under python -m trapcav.cli the cli module is __main__, and it binds
    # itself as trapcav.cli too before main runs, so the argparse and output
    # modules import that module by name: were it not bound, each import
    # would compile cli.py a second time and read a second flag table, whose
    # --values converter is not the one that the --config branch for a list
    # tests for; the argvs run every branch of both modules
    config = {"a": 1, "R": 4, "units": "reduced", "axis": "phi", "values": [1, 5, 10]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def python(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args, *argv], env=env, cwd=tmp_path, capture_output=True, text=True)

    module = python("-X", "importtime", "-m", "trapcav.cli")
    imported = [line.rsplit("|", 1)[-1].strip() for line in module.stderr.splitlines() if line.startswith("import time:")]
    assert "trapcav.forces" in imported and "trapcav.cli" not in imported
    direct = python("-c", "import sys, trapcav.cli; sys.exit(trapcav.cli.main(sys.argv[1:]))")
    assert (module.returncode, module.stdout) == (direct.returncode, direct.stdout)
    assert module.returncode == exit_code


def test_cli_import_leaves_tempfile_unloaded():
    # only --out needs tempfile; -S skips site-packages' .pth files, which
    # may import it on their own
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, trapcav.cli; print(sorted({'dataclasses', 'tempfile'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-S", "-c", probe]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_scalar_apis_leave_numpy_unloaded():
    probe = (
        "import math, sys\n"
        "from trapcav import AngleWindow, CavitySpec, fan_integrals, limit_angles\n"
        "from trapcav import pressure_profile, ray_length, s_factor\n"
        "from trapcav import specific_pressures\n"
        "spec = CavitySpec(4e-7, 4e-6, 1.0, math.radians(5.0))\n"
        "limit_angles(spec, 1e-6)\n"
        "s_factor(spec, 1e-6)\n"
        "ray_length(spec, 1e-6, 2.0)\n"
        "specific_pressures(spec, 1e-6)\n"
        "fan_integrals(AngleWindow(0.5, 2.0), spec.phi)\n"
        "pressure_profile(spec, 9)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert fresh_python(probe).strip() == "[]"


def test_verify_leaves_numpy_unloaded():
    # a long tilted wing (R/a = 1e5, 44.7 degrees): every check passes, the
    # force checks against the Gauss-Legendre oracle too, on math floats and
    # the exact integer geometry, with fractions and decimal unloaded
    argv = ("verify", "--a", "1e-7", "--R", "1e-2", "--phi-deg", "44.7")
    *report, last = fresh_python(FRESH_MAIN, *argv).splitlines()
    assert json.loads(last)[:2] == [0, []]
    payload = json.loads("\n".join(report))
    assert payload["all_passed"] is True
    assert {c["quantity"]: c["tolerance"] for c in payload["checks"]}["total_force_z"] == 1e-10


def test_every_public_name_resolves_in_a_fresh_process():
    # the lazy names resolve on first use, also through import *, and no
    # public name loads numpy: the package needs nothing at run time
    probe = (
        "import sys, trapcav\n"
        "names = {}\n"
        "exec('from trapcav import *', names)\n"
        "[getattr(trapcav, n) for n in trapcav.__all__]\n"
        "print([n for n in trapcav.__all__ if n not in names or n not in dir(trapcav)])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert fresh_python(probe).split() == ["[]", "[]"]


@pytest.mark.parametrize(
    "module, name",
    [
        ("quadrature", "integrate_adaptive"),
        ("quadrature", "pairwise_sum"),
        ("quadrature", "QuadratureResult"),
        ("errors", "NotConverged"),
        ("oracle", "riemann_forces"),
    ],
)
def test_numerical_references_live_only_in_their_modules(module, name):
    # the numpy references of the tests are not names of the package root,
    # so nothing at the root reaches numpy
    assert name not in trapcav.__all__
    with pytest.raises(AttributeError):
        getattr(trapcav, name)
    assert callable(getattr(importlib.import_module(f"trapcav.{module}"), name))


def test_help_exits_clean():
    assert main(["--help"]) == 0


def test_invalid_cavity_exits_2(capsys):
    assert main(["force", "--a", "0", "--R", "1e-06"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidCavity"
    assert payload["field"] == "a"


def strict_json(text):
    # RFC 8259 JSON: Python's Infinity, -Infinity and NaN are refused
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_non_finite_force_writes_one_json_object(capfd):
    # at a = 1e-120 m K L / a^3 overflows and the force is not finite;
    # nothing may warn on stderr before the error object
    code = main(["force", "--a", "1e-120", "--R", "4e-120", "--phi-deg", "5"])
    assert code == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    payload = strict_json(captured.err)
    assert payload["error"] == "NonFiniteSample" and payload["value"] == "-inf"
    # no integrand runs for a force: the message names the force component
    assert payload["message"] == "force component f_x is -inf, not a normal float"


def test_a_non_finite_profile_writes_one_json_object(capfd):
    # at a = 1e-90 m K / a^4 overflows: the profile exits 1 instead of
    # writing Infinity, which is not JSON
    argv = ["profile", "--a", "1e-90", "--R", "4e-90", "--phi-deg", "5", "--samples", "3", "--format", "json"]
    assert main(argv) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    payload = strict_json(captured.err)
    assert payload["error"] == "NonFiniteSample" and payload["value"] in ("inf", "-inf")
    # no integrand runs for a profile: the message names the pressure and r
    assert payload["message"] == f"pressure p_x is {payload['value']} at r=0.0"


def test_no_interior_maximum_exits_1(capsys):
    code = main(
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "18", "--phi-hi-deg", "40"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "NoInteriorMaximum"


def test_force_json_payload(capsysbinary):
    assert main(["force", *REDUCED_ARGS, "--phi-deg", "1.0"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["spec"]["phi"] == math.radians(1.0)
    assert payload["spec"]["units"] == "reduced"
    assert payload["converged"] is True
    assert payload["f_z"] < 0.0 and payload["f_x"] < 0.0


SPEC_KEYS = {"a", "R", "L", "phi", "units"}
FORCE_KEYS = {"f_x", "f_z", "err_x", "err_z", "wing_count", "converged"}


def test_json_payload_keys_are_pinned(capsysbinary):
    # the exact keys of the force, sweep, optimize and profile payloads: a
    # record field that is added or removed must not reach them
    def payload(argv):
        assert main(argv) == 0
        return json.loads(capsysbinary.readouterr().out)

    force = payload(["force", *REDUCED_ARGS, "--phi-deg", "5"])
    assert set(force) == {"spec"} | FORCE_KEYS and set(force["spec"]) == SPEC_KEYS
    table = payload(["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5,20", "--format", "json"])
    assert set(table) == {"axis", "base", "points"} and set(table["base"]) == SPEC_KEYS
    assert len(table["points"]) == 3
    assert all(set(point) == {"param"} | FORCE_KEYS for point in table["points"])
    report = payload(["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"])
    keys = {"spec", "phi_star", "f_x_star", "bracket", "iterations"}
    assert set(report) == keys and set(report["spec"]) == SPEC_KEYS
    # the cli benchmark's form of profile, whose samples it reads by key
    profile = payload(["profile", *REDUCED_ARGS, "--phi-deg", "5", "--samples", "64", "--format", "json"])
    assert set(profile) == {"spec", "samples"} and set(profile["spec"]) == SPEC_KEYS
    assert len(profile["samples"]) == 64
    assert all(set(sample) == {"r", "p_x", "p_z"} for sample in profile["samples"])


def test_tolerance_below_the_error_floor_exits_2(capsys):
    # the parser refuses it, before any force is computed
    assert main(["force", *REDUCED_ARGS, "--tol", "1e-15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--tol: must be at least {REL_TOL_FLOOR!r}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["force", *REDUCED_ARGS, "--tol", "inf"],
        ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "1", "--phi-hi-deg", "20"]
        + ["--phi-tol-deg", "inf"],
    ],
)
def test_infinite_tolerance_exits_2(argv, capsys):
    # the parser refuses it, before any force is computed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "and finite, got 'inf'" in captured.err


TOL_INVARIANT_RUNS = [
    *(
        ["force", "--a", "1", "--R", R, "--phi-deg", phi, "--units", "reduced"]
        for R, phi in (("0.251", "44.69"), ("4", "5"), ("0.001", "17"), ("1e308", "0"))
    ),
    ["sweep", "--a", "1", "--R", "4", "--units", "reduced", "--axis", "phi", "--values", "1,5,10,20", "--format", "json"],
]


@pytest.mark.parametrize("argv", TOL_INVARIANT_RUNS, ids=lambda argv: " ".join(argv[:5]))
def test_tol_changes_no_byte(argv, capsysbinary):
    # every accepted --tol is met: the closed form's bound is 32 eps of each
    # component and REL_TOL_FLOOR is 50 eps, so every result is converged
    # and the flag changes no byte of stdout
    outs = []
    for tol in ("1e-3", "1e-9", repr(REL_TOL_FLOOR)):
        assert main([*argv, "--tol", tol]) == 0
        outs.append(capsysbinary.readouterr().out)
        payload = json.loads(outs[-1])
        assert all(result["converged"] is True for result in payload.get("points", [payload]))
    assert outs[0] == outs[1] == outs[2]


def test_phi_tol_changes_no_byte(capsysbinary):
    # --phi-tol-deg is only checked: optimize resolves phi* to a few ulps,
    # below every accepted tolerance, so 0.001 degrees, the default and the
    # floor print the same bytes
    argv = ["optimize", *REDUCED_ARGS, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"]
    outs = []
    for tol in (["--phi-tol-deg", "0.001"], [], ["--phi-tol-deg", repr(math.degrees(PHI_TOL_FLOOR))]):
        assert main([*argv, *tol]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_profile_csv_shape(capsysbinary):
    assert main(["profile", *REDUCED_ARGS, "--samples", "5"]) == 0
    text = capsysbinary.readouterr().out.decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "r,p_x,p_z"
    assert len(lines) == 6
    assert text.endswith("\n") and "\r" not in text
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_profile_keeps_last_sample_when_R_rounds_up(capsysbinary):
    # R * 100 / 100 rounds one ulp above this R
    argv = ["profile", "--a", "1", "--R", "1874.971575805314", "--units", "reduced"]
    assert main([*argv, "--phi-deg", "1", "--samples", "101"]) == 0
    lines = capsysbinary.readouterr().out.decode("ascii").splitlines()
    assert len(lines) == 102
    assert float(lines[-1].split(",")[0]) == 1874.971575805314


def test_sweep_csv_param_in_radians(capsysbinary):
    argv = ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "0.5,2", "--format", "csv"]
    assert main(argv) == 0
    lines = capsysbinary.readouterr().out.decode("ascii").splitlines()
    assert lines[0] == "param,f_x,f_z,err_x,err_z,converged"
    assert lines[1].startswith("0.0087266462599716477,")
    assert lines[1].endswith(",true")


def test_csv_uses_17_significant_digits(monkeypatch, capsysbinary):
    # the sweep command writes whatever rows the analysis returns
    def thirds(spec, axis, values, **kwargs):
        row = ForceResult(spec=spec, f_x=1.0 / 3.0, f_z=-2.0 / 3.0, err_x=0.0, err_z=0.0)
        return SweepTable(axis=axis, points=((0.1, row),), base=spec)

    monkeypatch.setattr("trapcav.analysis.sweep", thirds)
    assert main(["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1", "--format", "csv"]) == 0
    body = capsysbinary.readouterr().out.decode("ascii")
    assert body.splitlines()[1] == "0.10000000000000001,0.33333333333333331,-0.66666666666666663,0,0,true"


def test_profile_svg_polyline_count(tmp_path):
    out = tmp_path / "p.svg"
    argv = [
        "profile", *REDUCED_ARGS, "--samples", "64", "--format", "svg",
        "--quantity", "pz", "--reference-classical", "--out", str(out),
    ]
    assert main(argv) == 0
    svg = out.read_bytes()
    assert svg.startswith(b'<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.count(b"<polyline") == 2  # the pressure series plus the reference
    import xml.etree.ElementTree as ET

    ET.fromstring(svg.decode("utf-8"))


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["profile", *REDUCED_ARGS, "--phi-deg", "5", "--samples", "9", "--format", "svg", "--reference-classical"],
            "3a84d2a40e8368c86a28f0603b77094fe820cc80ddca0c525dbe688eb86db9c1",
        ),
        (
            ["sweep", *REDUCED_ARGS, "--axis", "phi", "--values", "1,5,10,20", "--format", "svg"],
            "771fda215d3d378e54e2f4b7242464ef41525ff7aab8bb7149ddfd4ff64d7643",
        ),
    ],
)
def test_svg_bytes_are_pinned(argv, digest, capsysbinary):
    # every element of both plot kinds, byte for byte
    assert main(argv) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def test_profile_svg_both_quantities(tmp_path):
    out = tmp_path / "p.svg"
    argv = [
        "profile", *REDUCED_ARGS, "--samples", "32", "--format", "svg",
        "--quantity", "both", "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes().count(b"<polyline") == 2


def test_sweep_svg_peak_matches_sweep_table(tmp_path):
    degs = [1.0 + 0.55 * k for k in range(21)]
    out = tmp_path / "s.svg"
    argv = [
        "sweep", *REDUCED_ARGS, "--axis", "phi",
        "--values", ",".join(str(d) for d in degs), "--format", "svg",
        "--out", str(out),
    ]
    assert main(argv) == 0
    svg = out.read_text()
    polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', svg)
    assert len(polylines) == 1
    ys = [float(pair.split(",")[1]) for pair in polylines[0].split()]
    spec = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)
    table = sweep(spec, SweepAxis.PHI, [math.radians(d) for d in degs])
    mags = [abs(fr.f_x) for _, fr in table.points]
    # the svg y axis points down, so the force peak is the smallest pixel y
    assert ys.index(min(ys)) == mags.index(max(mags))


def test_sweep_svg_leaves_out_flagged_rows(tmp_path, capsysbinary):
    argv = [
        "sweep", "--a", "1", "--R", "1", "--units", "reduced", "--phi-deg", "5",
        "--axis", "R", "--values", "1e-200,1e-15,1e-14",
    ]
    assert main([*argv, "--format", "csv"]) == 0
    rows = capsysbinary.readouterr().out.decode("ascii").splitlines()[1:]
    assert [row.endswith(",false") for row in rows] == [True, False, False]
    out = tmp_path / "s.svg"
    assert main([*argv, "--format", "svg", "--out", str(out)]) == 0
    polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', out.read_text())
    assert len(polylines) == 1 and len(polylines[0].split()) == 2


def test_sweep_svg_without_two_finite_rows_exits_1(tmp_path, capsys):
    out = tmp_path / "s.svg"
    argv = [
        "sweep", "--a", "1", "--R", "1e-200", "--units", "reduced",
        "--axis", "phi", "--values", "10,17.19", "--format", "svg", "--out", str(out),
    ]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().err)
    assert "finite f_x" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_every_row_flagged_exits_1(fmt, capsysbinary):
    # f_x overflows on every row, as force on this cavity reports: the
    # table holds no force, so nothing goes to stdout
    argv = [
        "sweep", "--a", "1e-200", "--R", "4e-200", "--phi-deg", "3",
        "--axis", "phi", "--values", "1,5", "--format", fmt,
    ]
    assert main(argv) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    payload = json.loads(captured.err)
    assert payload == {
        "error": "TrapcavError",
        "message": "sweep needs a row with a finite f_x, 0 of 2 have one",
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_some_rows_flagged_exits_0(fmt, capsysbinary):
    argv = [
        "sweep", "--a", "1", "--R", "1", "--units", "reduced",
        "--axis", "R", "--values", "1e-160,1", "--format", fmt,
    ]
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    if fmt == "csv":
        rows = captured.out.decode("ascii").splitlines()[1:]
        converged = [row.endswith(",true") for row in rows]
    else:
        converged = [p["converged"] for p in json.loads(captured.out)["points"]]
    assert converged == [False, True]


def test_flagged_sweep_rows_are_strict_json(tmp_path, capsysbinary):
    # the R/a 1e-160 row is flagged with NaN forces and infinite bounds,
    # which go out as strings on stdout and through --out alike
    argv = [
        "sweep", "--a", "1", "--R", "1", "--units", "reduced",
        "--axis", "R", "--values", "1e-160,1", "--format", "json",
    ]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "sweep.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == stdout
    flagged, row = strict_json(stdout.decode("utf-8"))["points"]
    assert flagged == {
        "param": 1e-160, "f_x": "nan", "f_z": "nan", "err_x": "inf", "err_z": "inf",
        "wing_count": 1, "converged": False,
    }
    assert all(isinstance(row[key], float) for key in ("f_x", "f_z", "err_x", "err_z"))


def test_plot_spec_validation():
    # emit_svg checks the plot it draws
    pts = ((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="^plot needs at least one series$"):
        emit_svg(PlotSpec(x_label="x", y_label="y", series=()))
    with pytest.raises(ValueError, match="^series 's' needs at least 2 points$"):
        emit_svg(PlotSpec(x_label="x", y_label="y", series=(("s", ((0.0, 1.0),)),)))
    with pytest.raises(ValueError, match=r"^series 's' has a non-finite point \(0.0, nan\)$"):
        emit_svg(PlotSpec(x_label="x", y_label="y", series=(("s", ((0.0, math.nan), (1.0, 2.0))),)))
    with pytest.raises(ValueError, match="^reference line 'r' is non-finite$"):
        emit_svg(PlotSpec(x_label="x", y_label="y", series=(("s", pts),), ref_lines=(("r", math.inf),)))


def test_flat_series_svg_is_padded_not_fatal():
    plot = PlotSpec(
        x_label="x", y_label="y", series=(("flat", ((0.0, 2.0), (1.0, 2.0))),)
    )
    svg = emit_svg(plot).decode("utf-8")
    assert "<polyline" in svg
    assert 'width="640" height="440"' in svg


def test_output_writes_are_atomic(tmp_path):
    out = tmp_path / "force.json"
    out.write_text("stale")
    assert main(["force", *REDUCED_ARGS, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["converged"] is True
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "force.json"]
    assert leftovers == []


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a missing directory and an existing directory: a JSON error on
    # stderr, no traceback, no temporary file left behind
    (tmp_path / "taken").mkdir()
    for out, error in (
        (tmp_path / "missing" / "force.json", "FileNotFoundError"),
        (tmp_path / "taken", "IsADirectoryError"),
    ):
        assert main(["force", *REDUCED_ARGS, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == error
        assert payload["message"].startswith(f"cannot write {str(out)!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []


def _limit_file_size():
    # in the child only: a 4 KiB file-size limit, and SIGXFSZ ignored, so
    # a write past it fails with EFBIG instead of killing the process; a
    # single raw os.write of the payload would write 4096 bytes and return
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))


def test_short_out_write_exits_2_and_commits_nothing(tmp_path):
    # the document is about 28 KB, far past the limit: the run must fail
    # as a whole, not commit the first 4096 bytes under the --out name
    out = tmp_path / "p.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["profile", *REDUCED_ARGS, "--samples", "256", "--format", "json", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "trapcav.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        preexec_fn=_limit_file_size,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["message"].startswith(f"cannot write {str(out)!r}: ")
    assert list(tmp_path.iterdir()) == []


def _run_with_umask(umask, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "trapcav.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        preexec_fn=lambda: os.umask(umask),
    )


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_files_get_the_mode_open_would_give(tmp_path, umask, mode):
    # a new file gets 0666 less the umask; every file was once 0600, the
    # mode of the temporary file that replaces it
    out = tmp_path / "force.json"
    proc = _run_with_umask(umask, ["force", *REDUCED_ARGS, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_mode & 0o777 == mode


def test_out_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    out = tmp_path / "force.json"
    out.write_text("stale")
    out.chmod(0o640)
    proc = _run_with_umask(0o022, ["force", *REDUCED_ARGS, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["converged"] is True
    assert out.stat().st_mode & 0o777 == 0o640


def test_verify_command_passes_and_validates_schema(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", *REDUCED_ARGS, "--phi-deg", "1.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert {c["quantity"] for c in payload["checks"]} == {
        "limit_angles",
        "ray_length",
        "inner_integral_z",
        "inner_integral_x",
        "total_force_z",
        "total_force_x",
    }
    jsonschema.validate(payload, load_schema("report.schema.json"))


def test_verify_with_a_failing_check_reports_it_and_exits_1(monkeypatch, capsysbinary):
    # a corrupted K moves only the primary forces: the report still goes to
    # stdout, with the two force checks failing, and stderr stays empty
    monkeypatch.setattr(trapcav.geometry, "K", 2e-34 * 2.99792458e8 * math.pi**2 / 240.0)
    assert main(["verify", "--a", "4e-7", "--R", "4e-6", "--phi-deg", "1"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False
    failed = [c["quantity"] for c in payload["checks"] if not c["passed"]]
    assert failed == ["total_force_z", "total_force_x"]
    jsonschema.validate(payload, load_schema("report.schema.json"))


def test_verify_with_a_nan_check_fails_it_in_strict_json(monkeypatch, capsysbinary):
    # a NaN from the kernel's fan integrals fails both inner-integral checks;
    # their values go out as the string "nan", which the schema accepts
    monkeypatch.setattr(trapcav.kernels, "_fan", lambda *args: (math.nan, math.nan))
    assert main(["verify", *REDUCED_ARGS, "--phi-deg", "1.0"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    payload = strict_json(captured.out.decode("utf-8"))
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["all_passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["quantity"] for c in failed] == ["inner_integral_z", "inner_integral_x"]
    assert all(c["closed_form"] == c["rel_deviation"] == "nan" for c in failed)


def test_config_schema_accepts_documented_example(tmp_path):
    schema = load_schema("config.schema.json")
    example = {
        "a": 1.0,
        "R": 10.0,
        "units": "reduced",
        "phi_deg": 1.0,
        "tol": 1e-9,
    }
    jsonschema.validate(example, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"a": 1.0, "mystery": 2}, schema)


def test_repeated_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["force", *REDUCED_ARGS, "--phi-deg", "2.0"]
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
