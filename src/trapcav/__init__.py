"""Casimir forces on open trapezoid mirror cavities in the ray-optics picture.

The package computes the compression pressure p_z and the noncompensated
expulsion pressure p_x on the wings of an open trapezoid cavity, integrates
them into per-wing forces, sweeps and optimizes over the opening angle, and
cross-checks every closed form against brute-force oracles.

``import trapcav`` loads the errors, the cavity spec and its checks, the
pressure kernel, the closed-form forces, sweeps and the optimizer.  The
names of the two numerical cross-checks, the adaptive quadrature and the
oracle, resolve on first use (PEP 562), which imports their module.  Only
the quadrature's names (``integrate_adaptive``, ``pairwise_sum``,
``QuadratureResult``) and a call of ``riemann_forces`` load numpy;
everything else, ``verify_suite`` included, runs on plain floats.
"""

import importlib

from .analysis import (
    OptimumReport,
    RescaleReport,
    SweepAxis,
    SweepTable,
    optimize_phi,
    rescale_report,
    sweep,
)
from .errors import (
    DegenerateFan,
    InvalidCavity,
    NoInteriorMaximum,
    NonFiniteSample,
    NonPositiveGap,
    NotConverged,
    NumericDegeneracy,
    OutOfRange,
    TrapcavError,
)
from .forces import ForceResult, PressureProfile, pressure_profile, total_forces
from .geometry import (
    PHI_MAX,
    AngleWindow,
    CavitySpec,
    Units,
    limit_angles,
    pressure_prefactor,
    ray_length,
    s_factor,
    validate,
)
from .kernels import PressureSample, classical_casimir_pressure, fan_integrals, specific_pressures

# the cross-checks' public names, by the module that defines them
_LAZY = {
    "OracleReport": "oracle",
    "limit_angles_vector": "oracle",
    "ray_length_intersection": "oracle",
    "riemann_forces": "oracle",
    "verify_suite": "oracle",
    "QuadratureResult": "quadrature",
    "integrate_adaptive": "quadrature",
    "pairwise_sum": "quadrature",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AngleWindow",
    "CavitySpec",
    "DegenerateFan",
    "ForceResult",
    "InvalidCavity",
    "NoInteriorMaximum",
    "NonFiniteSample",
    "NonPositiveGap",
    "NotConverged",
    "NumericDegeneracy",
    "OptimumReport",
    "OracleReport",
    "OutOfRange",
    "PHI_MAX",
    "PressureProfile",
    "PressureSample",
    "QuadratureResult",
    "RescaleReport",
    "SweepAxis",
    "SweepTable",
    "TrapcavError",
    "Units",
    "classical_casimir_pressure",
    "fan_integrals",
    "integrate_adaptive",
    "limit_angles",
    "limit_angles_vector",
    "optimize_phi",
    "pairwise_sum",
    "pressure_prefactor",
    "pressure_profile",
    "ray_length",
    "ray_length_intersection",
    "rescale_report",
    "riemann_forces",
    "s_factor",
    "specific_pressures",
    "sweep",
    "total_forces",
    "validate",
    "verify_suite",
]
