"""The public records are immutable NamedTuples with their documented reprs."""

import importlib
import pkgutil
import typing

import pytest

import trapcav

from trapcav import (
    AngleWindow,
    CavitySpec,
    ForceResult,
    OptimumReport,
    OracleReport,
    PressureProfile,
    PressureSample,
    SweepAxis,
    SweepTable,
    Units,
)
from trapcav.cli import parse_args
from trapcav.emit import PlotSpec
from trapcav.quadrature import QuadratureResult

SPEC = "CavitySpec(a=1.0, R=4.0, L=1.0, phi=0.1, units=<Units.REDUCED: 'reduced'>)"
FORCE = (
    f"ForceResult(spec={SPEC}, f_x=-0.5, f_z=-1.25, err_x=1e-16, err_z=2e-16, "
    "wing_count=1, converged=True)"
)
SAMPLE = "PressureSample(r=0.5, p_x=0.25, p_z=-0.75)"


def spec():
    return CavitySpec(a=1.0, R=4.0, L=1.0, phi=0.1, units=Units.REDUCED)


def force():
    return ForceResult(spec=spec(), f_x=-0.5, f_z=-1.25, err_x=1e-16, err_z=2e-16)


def sample():
    return PressureSample(r=0.5, p_x=0.25, p_z=-0.75)


# (build a record, its repr, a field and a new value for it)
RECORDS = {
    "CavitySpec": (spec, SPEC, "phi", 0.2),
    "AngleWindow": (
        lambda: AngleWindow(theta1=0.5, theta2=2.0),
        "AngleWindow(theta1=0.5, theta2=2.0)",
        "theta2",
        3.0,
    ),
    "PressureSample": (sample, SAMPLE, "p_z", -1.0),
    "ForceResult": (force, FORCE, "converged", False),
    "PressureProfile": (
        lambda: PressureProfile(spec=spec(), samples=(sample(),)),
        f"PressureProfile(spec={SPEC}, samples=({SAMPLE},))",
        "samples",
        (),
    ),
    "SweepTable": (
        lambda: SweepTable(axis=SweepAxis.PHI, points=((0.1, force()),), base=spec(), force_calls=1),
        f"SweepTable(axis=<SweepAxis.PHI: 'phi'>, points=((0.1, {FORCE}),), base={SPEC}, "
        "force_calls=1)",
        "force_calls",
        2,
    ),
    "OptimumReport": (
        lambda: OptimumReport(
            phi_star=0.125,
            f_x_star=-0.5,
            bracket=(0.0625, 0.25),
            iterations=3,
            grid_prescan=((0.0625, -0.25), (0.25, -0.375)),
            force_calls=5,
        ),
        "OptimumReport(phi_star=0.125, f_x_star=-0.5, bracket=(0.0625, 0.25), iterations=3, "
        "grid_prescan=((0.0625, -0.25), (0.25, -0.375)), force_calls=5)",
        "phi_star",
        0.25,
    ),
    "OracleReport": (
        lambda: OracleReport("total_force_z", -1.25, -1.25, 0.0, 1e-10, True),
        "OracleReport(quantity='total_force_z', closed_form=-1.25, oracle=-1.25, "
        "rel_deviation=0.0, tolerance=1e-10, passed=True)",
        "passed",
        False,
    ),
    "QuadratureResult": (
        lambda: QuadratureResult(0.5, 1e-16, 15, True),
        "QuadratureResult(value=0.5, error_estimate=1e-16, evaluations=15, converged=True)",
        "evaluations",
        30,
    ),
    "RunConfig": (
        lambda: parse_args(["force", "--a", "1", "--R", "4", "--units", "reduced"]),
        "RunConfig(command='force', a=1.0, R=4.0, L=1.0, phi_deg=0.0, units='reduced', "
        "tol=1e-09, samples=None, wing_count=1, workers=None, out=None, format='json', "
        "quantity=None, reference_classical=None, axis=None, values=None, phi_lo_deg=None, "
        "phi_hi_deg=None, phi_tol_deg=None)",
        "tol",
        1e-6,
    ),
    "PlotSpec": (
        lambda: PlotSpec(x_label="r", y_label="p", series=(("p_x", ((0.0, 1.0), (1.0, 2.0))),)),
        "PlotSpec(x_label='r', y_label='p', series=(('p_x', ((0.0, 1.0), (1.0, 2.0))),), "
        "ref_lines=())",
        "y_label",
        "q",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, text, field, value = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text
    twin = make()
    assert twin is not record and twin == record and hash(twin) == hash(record)
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value and changed != record
    assert changed._replace(**{field: getattr(record, field)}) == record
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert repr(record) == text


def test_record_annotations_are_not_forward_references():
    # a NamedTuple turns each string annotation into a typing.ForwardRef,
    # which compiles the string when the class is made: every process that
    # imports a record would pay for it
    modules = [importlib.import_module(f"trapcav.{m.name}") for m in pkgutil.iter_modules(trapcav.__path__)]
    records = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert {cls.__name__ for cls in records} >= set(RECORDS)
    for cls in records:
        assert not [a for a in cls.__annotations__.values() if isinstance(a, typing.ForwardRef)], cls
