"""Total forces on a wing and sampled pressure profiles.

The force per cavity width L follows from integrating the local pressures
along the wing arc:

    F_z = L * integral_0^R p_z(r) dr      (compression, < 0)
    F_x = L * integral_0^R p_x(r) dr      (expulsion; < 0 for phi > 0)

Both components come from one adaptive integral of the vector integrand
r -> (p_x, p_z).  :func:`force_batch` integrates the wings of many cavities
in lock-step (:func:`~trapcav.quadrature.integrate_batch`): each round, the
quadrature nodes that every unfinished cavity needs next (all initial
panels, then the halves of the split under way and of the worst panels its
loop must still split) go through one call of the kernel
:func:`~trapcav.kernels.wing_pressures`, with each node's cavity parameters
gathered from its owner, and no node is evaluated twice.  Every cavity gets
the same bits, evaluations and outcome as alone, and a cavity whose
integral fails fails alone.  :func:`total_forces` is the batch of one.
The z integrand is single-signed and never integrates to zero for a valid
cavity.  The x integrand changes sign along the wing and at phi = 0
integrates to exactly zero by symmetry, where no relative target of its own
can be met.  The quadrature's max-norm stopping rule holds both error
estimates to rel_tol * max(|integral of p_x|, |integral of p_z|), and since
|F_x| <= |F_z| that is the z scale: the cavity's own force scale anchors x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, TrapcavError
from .geometry import CavitySpec, WingParams, validate
from .kernels import PressureSample, pressure_arrays, pressure_prefactor, wing_pressures
from .quadrature import REL_TOL_FLOOR, integrate_batch

# bench/tracing.py wraps these by their names in this module
from .kernels import specific_pressures  # noqa: F401
from .quadrature import integrate_adaptive  # noqa: F401


@dataclass(frozen=True)
class ForceResult:
    """Integrated forces with error estimates, per ``wing_count`` wings.

    ``err_x`` and ``err_z`` are quadrature error estimates scaled like the
    forces themselves.  ``converged`` is False when the integral stopped at
    its depth or panel limit; the values then carry the best estimate found.
    ``evaluations`` counts the wing points of the quadrature panels that the
    integral used, whether or not it converged.  Those are the kernel's
    nodes, except when the integral stopped at its panel or depth limit
    with halves evaluated ahead that it never split.
    """

    spec: CavitySpec
    f_x: float
    f_z: float
    err_x: float
    err_z: float
    wing_count: int = 1
    converged: bool = True
    evaluations: int = 0


@dataclass(frozen=True)
class PressureProfile:
    """Pressure samples along the wing, strictly increasing in ``r``."""

    spec: CavitySpec
    samples: tuple[PressureSample, ...]


def _edge_breakpoints(spec: CavitySpec) -> list[float]:
    points = []
    step = spec.a
    while step < 0.5 * spec.R:
        points += [step, spec.R - step]
        step *= 4.0
    return points


def force_batch(
    specs: list[CavitySpec],
    rel_tol: float = 1e-9,
    *,
    wing_count: int = 1,
) -> list[ForceResult | TrapcavError]:
    """:func:`total_forces` of many cavities, integrated in lock-step.

    Returns one outcome per spec, in order: the :class:`ForceResult` that
    ``total_forces`` returns for it, bit for bit, or the exception that
    ``total_forces`` would raise for it (a :class:`NonFiniteSample`, or a
    typed error of the kernel such as :class:`DegenerateFan`), which
    affects no other cavity.  Each round of the quadrature evaluates the
    nodes that all unfinished cavities need next in one kernel call.  An
    invalid spec, a bad ``wing_count``, or a ``rel_tol`` under
    ``REL_TOL_FLOOR`` or not finite raises for the whole batch.
    """
    for spec in specs:
        validate(spec)
    if wing_count not in (1, 2):
        raise ValueError(f"wing_count must be 1 or 2, got {wing_count!r}")
    if not (REL_TOL_FLOOR <= rel_tol < math.inf):
        raise ValueError(f"rel_tol must be at least {REL_TOL_FLOOR!r} and finite, got {rel_tol!r}")

    # one row per field of WingParams, then the prefactor K; one column
    # per cavity
    columns = np.array([(*WingParams.of(spec), pressure_prefactor(spec)) for spec in specs]).T

    def pressures(r: np.ndarray, owner: np.ndarray) -> tuple:
        *cav, k = columns[:, owner]
        return wing_pressures(WingParams(*cav), k, r)

    outcomes = integrate_batch(
        pressures, [(0.0, spec.R, _edge_breakpoints(spec)) for spec in specs], rel_tol=rel_tol
    )
    return [_forces(spec, q, wing_count) for spec, q in zip(specs, outcomes)]


def _forces(spec: CavitySpec, q, wing_count: int) -> ForceResult | TrapcavError:
    # one integral's outcome as forces; errors other than NotConverged
    # pass through
    if isinstance(q, TrapcavError) and not isinstance(q, NotConverged):
        return q
    (vx, vz), (ex, ez) = q.value, q.error_estimate
    f_x = spec.L * vx
    f_z = spec.L * vz
    err_x = spec.L * ex
    err_z = spec.L * ez
    if wing_count == 2:
        f_x *= 2.0
        err_x *= 2.0
        f_z = 0.0
        err_z = 0.0
    return ForceResult(
        spec=spec,
        f_x=f_x,
        f_z=f_z,
        err_x=err_x,
        err_z=err_z,
        wing_count=wing_count,
        converged=not isinstance(q, NotConverged),
        evaluations=q.evaluations,
    )


def total_forces(spec: CavitySpec, rel_tol: float = 1e-9, *, wing_count: int = 1) -> ForceResult:
    """Adaptive integration of both force components over the wing.

    One integral of r -> (p_x, p_z) gives both components.  The pressures
    change on the scale of the gap ``a`` near both wing ends, so on a long
    wing the initial panels are graded towards the ends, meeting at
    a 4^k and R - a 4^k (a 4^k < R/2); panels spanning the whole wing would
    never sample those edge regions and could agree on a wrong value.  With
    ``wing_count=2`` the x force doubles and the z force cancels exactly
    between the mirror-image wings; nothing is recomputed.  A
    :class:`NotConverged` is absorbed into ``converged=False`` instead of
    propagating, so sweeps can flag rows and continue; the values then carry
    the best estimates found.  This is :func:`force_batch` of one spec.
    """
    (outcome,) = force_batch([spec], rel_tol, wing_count=wing_count)
    if isinstance(outcome, TrapcavError):
        raise outcome
    return outcome


def pressure_profile(spec: CavitySpec, n: int) -> PressureProfile:
    """Sample both pressure components at ``n`` evenly spaced points on [0, R].

    Endpoints are included exactly: r_i = R * i / (n - 1), except that the
    last point is r = R itself, since R * (n - 1) / (n - 1) can round one
    ulp above R.  All samples are one call of the array kernel, and each
    has the bits of a one-point :func:`specific_pressures` call.
    """
    validate(spec)
    if n < 2:
        raise ValueError(f"profile needs at least 2 samples, got {n!r}")
    r = np.minimum(spec.R * np.arange(n) / (n - 1), spec.R)
    p_x, p_z = pressure_arrays(spec, r)
    samples = tuple(map(PressureSample, r.tolist(), p_x.tolist(), p_z.tolist()))
    return PressureProfile(spec=spec, samples=samples)
