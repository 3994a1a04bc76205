"""Every command but force, and its output: JSON, CSV and, through :mod:`~trapcav.emit`, SVG.

:func:`trapcav.cli.run` validates the spec and imports this module to run
any other command, so a force process compiles none of it.  Each record
writes its own fields (``_asdict``); a sweep row drops its spec, which the
table's ``base`` and the row's ``param`` give, and an optimum its
``force_calls``, a count of the search's work that the payload leaves out.
"""

import math

from . import cli
from .cli import _json_bytes
from .errors import TrapcavError
from .spec import pressure_prefactor


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


def run_command(config, spec) -> tuple[bytes, int]:
    """The output of ``config.command`` on the validated ``spec``, and the exit code.

    The profile and verify commands call :func:`trapcav.cli.pressure_profile`
    and :func:`trapcav.cli.verify_suite` by those names, and the sweep and
    optimize commands the analysis's own functions.  A verify report with a
    failed check exits 1.
    """
    if config.command == "profile":
        return _profile_payload(config, spec, cli.pressure_profile(spec, config.samples)), 0
    if config.command == "sweep":
        from .analysis import sweep

        values = [math.radians(v) for v in config.values] if config.axis == "phi" else list(config.values)
        table = sweep(spec, config.axis, values, rel_tol=config.tol, wing_count=config.wing_count,
                      workers=config.workers)
        return _sweep_payload(config, spec, table), 0
    if config.command == "optimize":
        from .analysis import optimize_phi

        fields = optimize_phi(spec, math.radians(config.phi_lo_deg), math.radians(config.phi_hi_deg))._asdict()
        del fields["force_calls"]
        return _json_bytes({**fields, "spec": spec._asdict()}), 0
    if config.command != "verify":
        raise ValueError(f"unknown command {config.command!r}")
    reports = cli.verify_suite(spec)
    all_passed = all(r.passed for r in reports)
    report = {"spec": spec._asdict(), "all_passed": all_passed, "checks": [r._asdict() for r in reports]}
    return _json_bytes(report), 0 if all_passed else 1


def _profile_payload(config, spec, profile) -> bytes:
    samples = [s._asdict() for s in profile.samples]
    if config.format == "json":
        return _json_bytes({"spec": spec._asdict(), "samples": samples})
    if config.format == "csv":
        return _csv_bytes("r,p_x,p_z", samples)
    # only svg output loads the emitter
    from .emit import emit_svg

    names = {"px": ("p_x",), "pz": ("p_z",), "both": ("p_x", "p_z")}[config.quantity]
    series = [(name, [(sample["r"], sample[name]) for sample in samples]) for name in names]
    refs = ()
    if config.reference_classical:
        from .kernels import classical_casimir_pressure

        refs = (("classical", classical_casimir_pressure(spec.a, k=pressure_prefactor(spec))),)
    return emit_svg("r", "pressure", series, refs)


def _sweep_payload(config, spec, table) -> bytes:
    pts = tuple((param, abs(res.f_x)) for param, res in table.points if math.isfinite(res.f_x))
    # a table of flagged rows only reports no force, and a plot needs 2 points
    if len(pts) < (2 if config.format == "svg" else 1):
        need = "sweep SVG needs 2 rows" if config.format == "svg" else "sweep needs a row"
        raise TrapcavError(f"{need} with a finite f_x, {len(pts)} of {len(table.points)} have one")
    points = [{"param": param, **res._asdict()} for param, res in table.points]
    for point in points:
        del point["spec"]
    if config.format == "json":
        return _json_bytes({"axis": table.axis.value, "base": spec._asdict(), "points": points})
    if config.format == "csv":
        return _csv_bytes("param,f_x,f_z,err_x,err_z,converged", points)
    # only svg output loads the emitter
    from .emit import emit_svg

    return emit_svg("phi [rad]" if table.axis.value == "phi" else "R", "|f_x|", [("|f_x|", pts)])
