"""Parameter sweeps, opening-angle optimization, and the rescaling check.

The expulsion force |f_x(phi)| rises from zero at phi = 0 (parallel plates,
exact compensation), peaks at some interior phi*, and falls again as the
widening fan dilutes the forward rays.  ``optimize_phi`` locates phi* with a
coarse grid prescan followed by golden-section refinement; the prescan is
kept in the report so a caller can audit the unimodality assumption.

``rescale_report`` exercises the pure dimensional content: scaling every
length except L by lambda multiplies specific pressures by lambda^-4 and
per-wing forces by lambda^-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import NoInteriorMaximum, TrapcavError
from .forces import ForceResult, force_batch, total_forces
from .geometry import PHI_MAX, CavitySpec, Units, validate
from .kernels import specific_pressures

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_POINTS = 32


class SweepAxis(str, Enum):
    """Cavity parameter varied by a sweep."""

    PHI = "phi"
    R = "R"


@dataclass(frozen=True)
class SweepTable:
    """One force evaluation per parameter value, plus the base spec echo.

    ``points`` pairs each parameter value with its :class:`ForceResult`.
    Rows that failed numerically carry NaN forces, infinite error estimates
    and ``converged=False`` instead of aborting the sweep.  ``force_calls``
    counts the force integrals (one per row) and ``evaluations`` the kernel
    evaluations of the rows that did not fail.
    """

    axis: SweepAxis
    points: tuple[tuple[float, ForceResult], ...]
    base: CavitySpec
    evaluations: int = 0
    force_calls: int = 0


@dataclass(frozen=True)
class OptimumReport:
    """Located expulsion maximum.

    ``bracket`` is the prescan bracket handed to the golden-section stage
    (one grid step either side of the best prescan point); ``grid_prescan``
    keeps the signed f_x at every prescan angle for audit.  ``force_calls``
    counts the force integrals of the prescan, the golden-section steps and
    the final evaluation at ``phi_star``, and ``evaluations`` their kernel
    evaluations.
    """

    phi_star: float
    f_x_star: float
    bracket: tuple[float, float]
    iterations: int
    grid_prescan: tuple[tuple[float, float], ...]
    evaluations: int = 0
    force_calls: int = 0


@dataclass(frozen=True)
class RescaleReport:
    """Measured vs analytic scaling ratios for a lambda-scaled cavity.

    Ratios are scaled-over-base, componentwise.  A component whose base
    value is indistinguishable from zero (the x force at phi = 0, which is
    pure cancellation noise) reports NaN and is excluded from
    ``max_rel_deviation``.
    """

    lam: float
    force_ratio_x: float
    force_ratio_z: float
    pressure_ratio_x: float
    pressure_ratio_z: float
    expected_force_ratio: float
    expected_pressure_ratio: float
    max_rel_deviation: float


def _flagged_row(spec: CavitySpec, wing_count: int) -> ForceResult:
    nan = float("nan")
    inf = float("inf")
    return ForceResult(
        spec=spec,
        f_x=nan,
        f_z=nan,
        err_x=inf,
        err_z=inf,
        wing_count=wing_count,
        converged=False,
    )


def _all_forces(specs: list[CavitySpec], rel_tol: float) -> list[ForceResult]:
    # one batch; the first failure raises, as a loop of total_forces would
    results = force_batch(specs, rel_tol)
    for result in results:
        if isinstance(result, TrapcavError):
            raise result
    return results


def sweep(
    base: CavitySpec,
    axis: SweepAxis,
    values: list[float],
    *,
    rel_tol: float = 1e-9,
    wing_count: int = 1,
    workers: int = 1,
) -> SweepTable:
    """One :func:`total_forces` evaluation per value along ``axis``.

    Values must be strictly increasing and each must yield a valid cavity
    (checked up front).  All rows are one :func:`force_batch`, and each
    row equals its own ``total_forces`` bit for bit.  ``workers`` is
    accepted for compatibility and must be at least 1; it runs nothing
    concurrently and cannot change the table (a thread pool gave no
    speedup on these GIL-bound rows).  A row that fails numerically is
    flagged, never fatal, and leaves the other rows as they are.
    """
    axis = SweepAxis(axis)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    for first, second in zip(values, values[1:]):
        if not (second > first):
            raise ValueError(f"sweep values must be strictly increasing, got {values!r}")
    field = "phi" if axis is SweepAxis.PHI else "R"
    specs = [replace(base, **{field: v}) for v in values]
    rows = force_batch(specs, rel_tol, wing_count=wing_count)
    results = [
        _flagged_row(spec, wing_count) if isinstance(row, TrapcavError) else row
        for spec, row in zip(specs, rows)
    ]
    return SweepTable(
        axis=axis,
        points=tuple(zip(values, results)),
        base=base,
        evaluations=sum(result.evaluations for result in results),
        force_calls=len(results),
    )


def optimize_phi(
    base: CavitySpec, lo: float, hi: float, tol: float = 1e-5, *, rel_tol: float = 1e-9
) -> OptimumReport:
    """Locate the half-angle maximizing |f_x| inside (lo, hi).

    A 32-point grid prescan, one :func:`force_batch`, must show a single
    interior peak; the bracket one grid step around it is then refined by
    golden-section search until the bracket width drops below ``tol``.  A
    prescan maximum sitting on an edge, a flat prescan, or multiple
    interior peaks raise :class:`NoInteriorMaximum` rather than returning a
    doubtful optimum.
    """
    if not (0.0 < lo < hi < PHI_MAX):
        raise ValueError(f"need 0 < lo < hi < pi/4, got lo={lo!r}, hi={hi!r}")
    if not (tol >= 1e-6):
        raise ValueError(f"tol must be at least 1e-6 rad, got {tol!r}")
    validate(replace(base, phi=lo))

    evaluations = []

    def f_x(phi: float) -> float:
        result = total_forces(replace(base, phi=phi), rel_tol)
        evaluations.append(result.evaluations)
        return result.f_x

    grid = [lo + (hi - lo) * k / (_PRESCAN_POINTS - 1) for k in range(_PRESCAN_POINTS)]
    scan = _all_forces([replace(base, phi=phi) for phi in grid], rel_tol)
    evaluations += [result.evaluations for result in scan]
    signed = [result.f_x for result in scan]
    mags = [abs(v) for v in signed]
    best = max(range(len(mags)), key=lambda i: (mags[i], -i))
    prescan = tuple(zip(grid, signed))

    if sum(1 for m in mags if m == mags[best]) > 1:
        raise NoInteriorMaximum("prescan objective is flat; no single peak to bracket")
    if best == 0 or best == len(grid) - 1:
        raise NoInteriorMaximum(
            f"prescan maximum sits at the bracket edge phi={grid[best]!r}"
        )
    peaks = [
        k
        for k in range(1, len(mags) - 1)
        if mags[k] > mags[k - 1] and mags[k] > mags[k + 1]
    ]
    if len(peaks) > 1:
        raise NoInteriorMaximum(f"prescan shows {len(peaks)} interior peaks, expected one")

    bracket = (grid[best - 1], grid[best + 1])
    a, b = bracket
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc = abs(f_x(c))
    fd = abs(f_x(d))
    iterations = 0
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = abs(f_x(c))
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = abs(f_x(d))
        iterations += 1
    phi_star = 0.5 * (a + b)
    f_x_star = f_x(phi_star)
    return OptimumReport(
        phi_star=phi_star,
        f_x_star=f_x_star,
        bracket=bracket,
        iterations=iterations,
        grid_prescan=prescan,
        evaluations=sum(evaluations),
        force_calls=len(evaluations),
    )


def rescale_report(spec: CavitySpec, lam: float, *, rel_tol: float = 1e-9) -> RescaleReport:
    """Measure force and pressure ratios between ``spec`` and its lambda scale.

    The scaled cavity has (a, R) -> (lambda a, lambda R) at fixed L.  Both
    cavities are evaluated in SI mode even for reduced input, because
    reduced mode pins a = 1, which the scaled twin would violate; every
    reported ratio is prefactor-free so this changes nothing.  Pressures
    are compared at the matched interior point r = R/3 (r = R/2 would sit
    exactly on the p_x zero of the parallel-plate case).
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"scale factor must be positive and finite, got {lam!r}")
    base = replace(spec, units=Units.SI)
    validate(base)
    scaled = replace(base, a=lam * base.a, R=lam * base.R)

    f_base, f_scaled = _all_forces([base, scaled], rel_tol)
    p_base = specific_pressures(base, base.R / 3.0)
    p_scaled = specific_pressures(scaled, scaled.R / 3.0)

    def ratio(num: float, den: float, scale: float) -> float:
        # the x force vanishes identically at phi = 0 and integrates to
        # cancellation noise around 1e-16 of the z scale; any physical
        # component sits many orders above this cutoff
        if abs(den) <= 1e-12 * scale:
            return float("nan")
        return num / den

    fr_x = ratio(f_scaled.f_x, f_base.f_x, abs(f_base.f_z))
    fr_z = ratio(f_scaled.f_z, f_base.f_z, abs(f_base.f_z))
    pr_x = ratio(p_scaled.p_x, p_base.p_x, abs(p_base.p_z))
    pr_z = ratio(p_scaled.p_z, p_base.p_z, abs(p_base.p_z))
    expected_f = lam**-3
    expected_p = lam**-4
    deviations = [
        abs(fr_x / expected_f - 1.0) if math.isfinite(fr_x) else 0.0,
        abs(fr_z / expected_f - 1.0),
        abs(pr_x / expected_p - 1.0) if math.isfinite(pr_x) else 0.0,
        abs(pr_z / expected_p - 1.0),
    ]
    return RescaleReport(
        lam=lam,
        force_ratio_x=fr_x,
        force_ratio_z=fr_z,
        pressure_ratio_x=pr_x,
        pressure_ratio_z=pr_z,
        expected_force_ratio=expected_f,
        expected_pressure_ratio=expected_p,
        max_rel_deviation=max(deviations),
    )
