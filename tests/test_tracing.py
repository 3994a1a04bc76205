import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import trapcav.cli
import trapcav.quadrature
from trapcav import NotConverged

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("trapcav_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve():
    # the tracer looks every wrap point up with a bare getattr, so a name
    # deleted or moved in the package breaks every traced benchmark run
    missing = [
        f"{module}.{attr}"
        for module, attr in load_tracing().WRAP_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_uninstall_restores_every_wrap_point():
    # uninstall must put back the very object each wrap point named, or a
    # stale wrapper keeps counting into a finished tracer
    tracing = load_tracing()

    def wrap_points():
        return [getattr(importlib.import_module(module), attr) for module, attr in tracing.WRAP_POINTS]

    before = wrap_points()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    moved = [
        f"{module}.{attr}"
        for (module, attr), old, new in zip(tracing.WRAP_POINTS, before, wrap_points())
        if new is not old
    ]
    assert moved == []


def test_traced_cli_runs_record_the_lazily_loaded_layers(capsysbinary):
    # the cli calls verify_suite and pressure_profile by their names in its
    # module, so the wrappers installed there see the calls, verify_suite's
    # although the oracle loads only on its first call
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert trapcav.cli.main(["verify", "--a", "4e-7", "--R", "4e-6", "--phi-deg", "1"]) == 0
        assert trapcav.cli.main(["profile", "--a", "1", "--R", "4", "--units", "reduced", "--samples", "9"]) == 0
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"oracle.verify_suite", "forces.pressure_profile", "forces.total_forces"} <= recorded


def test_traced_cli_sweep_and_optimize_record_one_analysis_span(capsysbinary):
    # the tracer wraps sweep and optimize_phi both in the cli and in the
    # analysis; a command that ran through both wrappers would count its
    # analysis call twice
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        reduced = ["--a", "1", "--R", "4", "--units", "reduced"]
        assert trapcav.cli.main(["sweep", *reduced, "--axis", "phi", "--values", "1,5"]) == 0
        assert trapcav.cli.main(["optimize", *reduced, "--phi-lo-deg", "0.5", "--phi-hi-deg", "20"]) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert [names.count("analysis.sweep"), names.count("analysis.optimize_phi")] == [1, 1]


def test_traced_quadrature_counts_its_evaluations():
    # the tracer reads evaluations from a result and from a NotConverged,
    # and counts each NotConverged once
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        q = trapcav.quadrature.integrate_adaptive(np.sin, 0.0, 1.0)
        assert q.converged and q.evaluations == 15
        assert tracer.counts["quadrature.evals"] == 15
        assert tracer.counts["quadrature.not_converged"] == 0
        # the estimate floors of sin 3t exceed a 1e-12 target
        with pytest.raises(NotConverged) as err:
            trapcav.quadrature.integrate_adaptive(lambda t: np.sin(3.0 * t), 0.0, 2.0, 1e-12, 0.0)
    finally:
        tracer.uninstall()
    assert err.value.evaluations == 15
    assert tracer.counts["quadrature.evals"] == 30
    assert tracer.counts["quadrature.not_converged"] == 1
    assert tracer.layer_totals()["quadrature.integrate_adaptive"]["calls"] == 2
