"""Casimir forces on open trapezoid mirror cavities in the ray-optics picture.

The package computes the compression pressure p_z and the noncompensated
expulsion pressure p_x on the wings of an open trapezoid cavity, integrates
them into per-wing forces, sweeps and optimizes over the opening angle, and
cross-checks every closed form against brute-force oracles.

``import trapcav`` loads the errors, the cavity spec and its checks
(:mod:`~trapcav.spec`), and the closed-form forces: what a ``trapcav
force`` process runs.  Every other public name resolves on first use (PEP
562), which imports its module: the ray geometry (:mod:`~trapcav.geometry`),
the sweeps and the optimizer (:mod:`~trapcav.analysis`), the pressure
kernel and its profiles (:mod:`~trapcav.kernels`) and the oracle's checks
(:mod:`~trapcav.oracle`).  Every public name runs on plain floats and
loads no numpy.  The numerical references that the tests compare against,
the adaptive quadrature of :mod:`~trapcav.quadrature` and
:func:`~trapcav.oracle.riemann_forces`, are imported from their modules:
they need numpy, which only the ``test`` extra installs.
"""

import importlib

from .errors import (
    InvalidCavity,
    NoInteriorMaximum,
    NonFiniteSample,
    NonPositiveGap,
    NumericDegeneracy,
    OutOfRange,
    TrapcavError,
)
from .forces import ForceResult, total_forces
from .spec import PHI_MAX, CavitySpec, Units, pressure_prefactor, validate

# the public names that load on first use, by the module that defines them
_LAZY = {
    "AngleWindow": "geometry",
    "limit_angles": "geometry",
    "ray_length": "geometry",
    "s_factor": "geometry",
    "OptimumReport": "analysis",
    "SweepAxis": "analysis",
    "SweepTable": "analysis",
    "optimize_phi": "analysis",
    "sweep": "analysis",
    "PressureProfile": "kernels",
    "PressureSample": "kernels",
    "classical_casimir_pressure": "kernels",
    "fan_integrals": "kernels",
    "pressure_profile": "kernels",
    "specific_pressures": "kernels",
    "OracleReport": "oracle",
    "limit_angles_vector": "oracle",
    "ray_length_intersection": "oracle",
    "verify_suite": "oracle",
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
    "ForceResult",
    "InvalidCavity",
    "NoInteriorMaximum",
    "NonFiniteSample",
    "NonPositiveGap",
    "NumericDegeneracy",
    "OptimumReport",
    "OracleReport",
    "OutOfRange",
    "PHI_MAX",
    "PressureProfile",
    "PressureSample",
    "SweepAxis",
    "SweepTable",
    "TrapcavError",
    "Units",
    "classical_casimir_pressure",
    "fan_integrals",
    "limit_angles",
    "limit_angles_vector",
    "optimize_phi",
    "pressure_prefactor",
    "pressure_profile",
    "ray_length",
    "ray_length_intersection",
    "s_factor",
    "specific_pressures",
    "sweep",
    "total_forces",
    "validate",
    "verify_suite",
]
