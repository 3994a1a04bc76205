"""Parameter sweeps and opening-angle optimization.

The expulsion force |f_x(phi)| rises from zero at phi = 0 (parallel plates,
exact compensation), peaks at some interior phi*, and falls again as the
widening fan dilutes the forward rays.  ``optimize_phi`` locates phi* with a
coarse prescan on a geometric grid, whose steps shrink with phi like phi*
shrinks with R/a, followed by safeguarded parabolic refinement (Brent,
*Algorithms for Minimization without Derivatives*, 1973) run in batches:
each round evaluates up to three angles.  It reads nothing but f_x, so
the prescan and every round are one call of
:func:`~trapcav.forces.expulsion`, the bare closed form per angle, with
the bits of a lone ``total_forces``.  The prescan is kept in the report
so a caller can audit the unimodality assumption.
"""

import bisect
import math
from enum import Enum
from typing import NamedTuple

from .errors import InvalidCavity, NoInteriorMaximum, NonFiniteSample
from .forces import ForceResult, _check_options, _forces, _scale, expulsion
from .geometry import PHI_MAX, PHI_TOL_FLOOR, CavitySpec, validate

# bench/tracing.py wraps it by its name in this module
from .forces import total_forces  # noqa: F401

_PRESCAN_POINTS = 32


class SweepAxis(str, Enum):
    """Cavity parameter varied by a sweep."""

    PHI = "phi"
    R = "R"


class SweepTable(NamedTuple):
    """One force evaluation per parameter value, plus the base spec echo.

    ``points`` pairs each parameter value with its :class:`ForceResult`,
    which has the bits of the lone :func:`total_forces` of its cavity.
    Rows whose ``total_forces`` would raise :class:`NonFiniteSample` carry
    NaN forces, infinite error estimates and ``converged=False`` instead of
    aborting the sweep.  ``force_calls`` counts the force calls, one per
    row.
    """

    axis: SweepAxis
    points: tuple[tuple[float, ForceResult], ...]
    base: CavitySpec
    force_calls: int = 0


class OptimumReport(NamedTuple):
    """Located expulsion maximum.

    ``phi_star`` is the best angle sampled and ``f_x_star`` its signed f_x,
    the bits of a lone ``total_forces`` there.  ``bracket`` is the prescan
    bracket handed to the refinement (one grid step either side of the best
    prescan point); ``grid_prescan`` keeps the signed f_x at every prescan
    angle for audit.  ``iterations`` counts the refinement rounds, of at
    most three angles each.  ``force_calls`` counts the sampled angles,
    one force each, of the prescan and of every round.
    """

    phi_star: float
    f_x_star: float
    bracket: tuple[float, float]
    iterations: int
    grid_prescan: tuple[tuple[float, float], ...]
    force_calls: int = 0


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

    Values must be strictly increasing and each must yield a valid cavity,
    which is checked before ``rel_tol`` and ``wing_count`` and before any
    force.  The rows share ``a``, ``L`` and ``units``, and the valid phi
    [0, pi/4) and R (0, inf) are intervals, so valid first and last rows
    prove every row valid; otherwise the rows are checked in order and the
    first invalid one is named.  The scale K L / a^3 is computed once, and
    each row then runs the closed form of ``total_forces`` alone, so it
    equals its own ``total_forces`` bit for bit.  ``workers`` is accepted
    for compatibility and must be at least 1; it runs nothing concurrently
    and cannot change the table (a thread pool gave no speedup on these
    GIL-bound rows).  A row that fails numerically is flagged, never
    fatal, and leaves the other rows as they are.
    """
    axis = SweepAxis(axis)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    for first, second in zip(values, values[1:]):
        if not (second > first):
            raise ValueError(f"sweep values must be strictly increasing, got {values!r}")
    a, R, L, phi, units = base
    # tuple.__new__ skips the NamedTuple's Python-level __new__, a
    # twentieth of a row's time
    if axis is SweepAxis.PHI:
        specs = [tuple.__new__(CavitySpec, (a, R, L, v, units)) for v in values]
    else:
        specs = [tuple.__new__(CavitySpec, (a, v, L, phi, units)) for v in values]
    # valid end rows prove the rows between them valid
    try:
        for spec in specs[:1] + specs[-1:]:
            validate(spec)
    except InvalidCavity:
        for spec in specs:
            validate(spec)
    _check_options(rel_tol, wing_count)
    # an empty sweep checks no cavity, so its base may have no scale
    scale = _scale(base) if specs else 0.0
    results = []
    for spec in specs:
        try:
            results.append(_forces(spec, scale, rel_tol, wing_count))
        except NonFiniteSample:
            results.append(_flagged_row(spec, wing_count))
    return SweepTable(
        axis=axis,
        points=tuple(zip(values, results)),
        base=base,
        force_calls=len(results),
    )


def optimize_phi(
    base: CavitySpec, lo: float, hi: float, tol: float = 1e-5, *, rel_tol: float = 1e-9
) -> OptimumReport:
    """Locate the half-angle maximizing |f_x| inside (lo, hi).

    The window and ``base`` with ``phi=lo`` are checked first, which
    proves every sampled angle a valid cavity, and ``rel_tol`` is refused
    as :func:`total_forces` refuses it, although no result here reports
    ``converged``.  Each sample is then the bare f_x of
    :func:`~trapcav.forces.expulsion`, bit for bit the lone
    ``total_forces`` f_x.  A 32-point prescan must show a single interior
    peak.  Its angles are spaced geometrically, lo (hi/lo)^(k/31) with the
    last one exactly hi, so that each step is the same fraction of its
    angle: phi* falls like (a/2R)^(3/4) on long wings (1.4e-4 rad at R/a
    65536), where an even grid over a window of a few tenths of a radian
    would put it below the first step.  A prescan maximum sitting on an
    edge, a flat prescan, or multiple interior peaks raise
    :class:`NoInteriorMaximum` rather than returning a doubtful optimum.
    Refinement then keeps every sample; its bracket is the best sample and
    its nearest sampled neighbours, which holds a unimodal peak by
    construction.  Each round samples at most three angles at and around
    the vertex of the parabola through those three samples, or, when that
    vertex is unusable or the last round did not halve the bracket, three
    angles quartering the bracket's wider side.  The search stops once the
    bracket is narrower than ``tol``; ``phi_star`` is the best sample.
    """
    if not (0.0 < lo < hi < PHI_MAX):
        raise ValueError(f"need 0 < lo < hi < pi/4, got lo={lo!r}, hi={hi!r}")
    if not (PHI_TOL_FLOOR <= tol < math.inf):
        raise ValueError(f"tol must be at least {PHI_TOL_FLOOR!r} rad and finite, got {tol!r}")
    # with the window check, this proves every angle sampled below valid
    validate(base._replace(phi=lo))
    _check_options(rel_tol, 1)

    last = _PRESCAN_POINTS - 1
    grid = [lo * (hi / lo) ** (k / last) for k in range(last)] + [hi]
    signed = expulsion(base, grid)
    mags = [abs(v) for v in signed]
    best = mags.index(max(mags))
    prescan = tuple(zip(grid, signed))

    if mags.count(mags[best]) > 1:
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
    # every sample so far in angle order; the search bracket is always the
    # best sample and its two neighbours, so a unimodal peak stays inside
    phis = list(grid)
    iterations = 0
    width, last_width = bracket[1] - bracket[0], math.inf
    while width >= tol:
        x, f = phis[best - 1 : best + 2], mags[best - 1 : best + 2]
        angles = _refinement_angles(x, f, tol, width <= 0.5 * last_width)
        for phi, f_x in zip(angles, expulsion(base, angles)):
            k = bisect.bisect(phis, phi)
            phis.insert(k, phi)
            mags.insert(k, abs(f_x))
            signed.insert(k, f_x)
        best = mags.index(max(mags))
        width, last_width = phis[best + 1] - phis[best - 1], width
        iterations += 1
    return OptimumReport(
        phi_star=phis[best],
        f_x_star=signed[best],
        bracket=bracket,
        iterations=iterations,
        grid_prescan=prescan,
        force_calls=len(phis),
    )


def _refinement_angles(
    x: list[float], f: list[float], tol: float, shrank: bool
) -> list[float]:
    """New angles for one round, strictly inside the bracket ``x[0] < x[2]``.

    ``x[1]`` is the best sample and ``f`` holds |f_x| at the three angles.
    The angles go at and around the vertex of the parabola through them
    (Brent 1973), spread by half the vertex's step from ``x[1]`` but at
    least tol / 3, so that a winning vertex closes the bracket below
    ``tol``.  A parabola that is not concave, a vertex outside the bracket
    or on ``x[1]``, or a last round that did not halve the bracket
    (``shrank`` false) makes the round quarter the wider side instead,
    which leaves at most 5/8 of the bracket.
    """
    (lo, mid, hi), (f_lo, f_mid, f_hi) = x, f
    left, right = mid - lo, hi - mid
    # the parabola's vertex is mid - p / (2 q); it opens downwards iff q > 0
    p = left * left * (f_mid - f_hi) - right * right * (f_mid - f_lo)
    q = left * (f_mid - f_hi) + right * (f_mid - f_lo)
    vertex = mid - 0.5 * p / q if q > 0.0 else mid
    if shrank and lo < vertex < hi and vertex != mid:
        spread = max(0.5 * abs(vertex - mid), tol / 3.0)
        return [v for v in (vertex - spread, vertex, vertex + spread) if lo < v < hi and v != mid]
    a, b = (lo, mid) if left > right else (mid, hi)
    return [a + (b - a) * k / 4.0 for k in (1, 2, 3)]
