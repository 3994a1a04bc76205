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
the adaptive quadrature of :mod:`~trapcav.quadrature` with the
:class:`~trapcav.quadrature.NotConverged` that only it raises, and
:func:`~trapcav.oracle.riemann_forces`, are imported from their modules:
they need numpy, which only the ``test`` extra installs.
"""

import importlib

from . import errors, forces, spec

# each public name, by the module that defines it; the names of errors,
# forces and spec are bound below, every other one loads its module on
# first use
_PUBLIC = {
    "errors": (
        "InvalidCavity",
        "NoInteriorMaximum",
        "NonFiniteSample",
        "NonPositiveGap",
        "NumericDegeneracy",
        "OutOfRange",
        "TrapcavError",
    ),
    "forces": ("ForceResult", "total_forces"),
    "spec": ("PHI_MAX", "CavitySpec", "Units", "pressure_prefactor", "validate"),
    "geometry": ("AngleWindow", "limit_angles", "ray_length", "s_factor"),
    "analysis": ("OptimumReport", "SweepAxis", "SweepTable", "optimize_phi", "sweep"),
    "kernels": (
        "PressureProfile",
        "PressureSample",
        "classical_casimir_pressure",
        "fan_integrals",
        "pressure_profile",
        "specific_pressures",
    ),
    "oracle": ("OracleReport", "limit_angles_vector", "ray_length_intersection", "verify_suite"),
}

_HOME = {name: home for home, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)

# plain attributes, not __getattr__'s: a lookup of them stays a dict read
globals().update(
    (name, getattr(globals()[home], name)) for home in ("errors", "forces", "spec") for name in _PUBLIC[home]
)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
