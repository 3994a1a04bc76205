import importlib
import importlib.util
from pathlib import Path

import trapcav.cli

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


def test_traced_cli_runs_record_the_lazily_loaded_layers(capsysbinary):
    # the cli calls verify_suite and pressure_profile through its module
    # attributes, so the wrappers installed there see the calls even though
    # the oracle and the array kernel load only on first use
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert trapcav.cli.main(["verify", "--a", "4e-7", "--R", "4e-6", "--phi-deg", "1"]) == 0
        assert trapcav.cli.main(["profile", "--a", "1", "--R", "4", "--units", "reduced", "--samples", "9"]) == 0
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"oracle.verify_suite", "forces.pressure_profile", "forces.total_forces"} <= recorded
