"""Casimir forces on open trapezoid mirror cavities in the ray-optics picture.

The package computes the compression pressure p_z and the noncompensated
expulsion pressure p_x on the wings of an open trapezoid cavity, integrates
them into per-wing forces, sweeps and optimizes over the opening angle, and
cross-checks every closed form against brute-force oracles.
"""

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
    NonPositiveRay,
    NotConverged,
    NumericDegeneracy,
    OutOfRange,
    TrapcavError,
)
from .forces import ForceResult, PressureProfile, force_batch, pressure_profile, total_forces
from .geometry import (
    PHI_MAX,
    AngleWindow,
    CavitySpec,
    Units,
    limit_angles,
    ray_length,
    s_factor,
    validate,
)
from .kernels import (
    CODATA,
    PhysicalConstants,
    PressureSample,
    casimir_energy_per_area,
    classical_casimir_pressure,
    fan_integrals,
    local_ray_pressure,
    pressure_arrays,
    pressure_prefactor,
    specific_pressures,
)
from .oracle import (
    OracleReport,
    limit_angles_vector,
    ray_length_intersection,
    riemann_forces,
    riemann_pressures,
    verify_suite,
)
from .quadrature import QuadratureResult, integrate_adaptive, pairwise_sum

__version__ = "0.1.0"

__all__ = [
    "AngleWindow",
    "CavitySpec",
    "CODATA",
    "DegenerateFan",
    "ForceResult",
    "InvalidCavity",
    "NoInteriorMaximum",
    "NonFiniteSample",
    "NonPositiveGap",
    "NonPositiveRay",
    "NotConverged",
    "NumericDegeneracy",
    "OptimumReport",
    "OracleReport",
    "OutOfRange",
    "PHI_MAX",
    "PhysicalConstants",
    "PressureProfile",
    "PressureSample",
    "QuadratureResult",
    "RescaleReport",
    "SweepAxis",
    "SweepTable",
    "TrapcavError",
    "Units",
    "casimir_energy_per_area",
    "classical_casimir_pressure",
    "fan_integrals",
    "force_batch",
    "integrate_adaptive",
    "limit_angles",
    "limit_angles_vector",
    "local_ray_pressure",
    "optimize_phi",
    "pairwise_sum",
    "pressure_arrays",
    "pressure_prefactor",
    "pressure_profile",
    "ray_length",
    "ray_length_intersection",
    "rescale_report",
    "riemann_forces",
    "riemann_pressures",
    "s_factor",
    "specific_pressures",
    "sweep",
    "total_forces",
    "validate",
    "verify_suite",
]
