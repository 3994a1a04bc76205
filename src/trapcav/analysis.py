"""Parameter sweeps and opening-angle optimization.

The expulsion force |f_x(phi)| rises from zero at phi = 0 (parallel plates,
exact compensation), peaks at some interior phi*, and falls again as the
widening fan dilutes the forward rays.  ``optimize_phi`` takes phi* as the
root of d f_x / d phi, which ``_dfx_dphi`` writes in closed form from the
same moments as the f_x of :mod:`~trapcav.forces`.  f_x is flat at its
peak, so a search on f_x values resolves phi* only to about the square
root of eps; the sign of the derivative resolves it to a few ulps.  The root is found by Brent's zero
(*Algorithms for Minimization without Derivatives*, 1973, ch. 4) in
t = ln phi, whose steps shrink with phi like phi* shrinks with R/a.  Each
sampled angle costs one evaluation of the scale-free derivative; only the
f_x reported at phi* is scaled, with the bits of a lone ``total_forces``.
|f_x| was seen to have exactly one interior maximum for every R/a from
1e-3 to 1e12 (``tests/test_analysis.py`` samples it), so a sign change of
the derivative across the window brackets the one peak.
"""

import math
from enum import Enum
from typing import NamedTuple

from .errors import NoInteriorMaximum, NonFiniteSample
from .forces import _FLOAT_MIN, ForceResult, _check_options, _forces, _reduced, _scale
from .geometry import PHI_MAX, CavitySpec, validate

# bench/tracing.py wraps it by its name in this module
from .forces import total_forces  # noqa: F401


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

    ``phi_star`` is the root of d f_x / d phi and ``f_x_star`` its signed
    f_x, the bits of a lone ``total_forces`` there.  ``bracket`` is the
    root finder's final bracket, whose ends are ``phi_star`` and an angle
    sampled on the other side of the root, at most 4 eps |ln phi*| apart
    in ln phi unless the derivative is 0 at ``phi_star``.  ``iterations``
    counts the root finder's steps, one angle each.  ``force_calls``
    counts the closed-form evaluations: the derivative at both window
    ends and at every step, and f_x at ``phi_star``.
    """

    phi_star: float
    f_x_star: float
    bracket: tuple[float, float]
    iterations: int
    force_calls: int = 0


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

    Values must be strictly increasing and each must yield a valid cavity.
    Every row is validated, in order, before ``rel_tol`` and
    ``wing_count`` are checked and before any force, so the first invalid
    row is the one named.  The scale K L / a^3 is computed once, and
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
    for spec in specs:
        validate(spec)
    _check_options(rel_tol, wing_count)
    # an empty sweep checks no cavity, so its base may have no scale
    scale = _scale(base) if specs else 0.0
    results = []
    for spec in specs:
        try:
            results.append(_forces(spec, scale, wing_count))
        except NonFiniteSample:
            results.append(ForceResult(spec, math.nan, math.nan, math.inf, math.inf, wing_count, False))
    return SweepTable(
        axis=axis,
        points=tuple(zip(values, results)),
        base=base,
        force_calls=len(results),
    )


def optimize_phi(base: CavitySpec, lo: float, hi: float, *, rel_tol: float = 1e-9) -> OptimumReport:
    """Locate the half-angle maximizing |f_x| inside (lo, hi).

    The window and ``base`` with ``phi=lo`` are checked first, which
    proves every sampled angle a valid cavity, and ``rel_tol`` is refused
    as :func:`total_forces` refuses it, although no result here reports
    ``converged``.  |f_x| must rise at ``lo`` and fall at ``hi``: where
    d f_x / d phi has no sign change across the window, or is 0 at an end,
    :class:`NoInteriorMaximum` is raised rather than an edge returned.
    The derivative's terms shrink like (R/a)^4 on short wings; a sample
    whose terms are not normal floats (R/a below about 1e-77) raises
    :class:`NonFiniteSample`, since the sign of their sum is noise.
    Brent's zero then runs in t = ln phi until the bracket is 4 eps |t|
    wide or the derivative is 0; phi* is the end where the derivative is
    smaller in size, and the one scaled evaluation, f_x at phi*, raises the :class:`NonFiniteSample`
    of a lone ``total_forces`` there.  On long wings phi* follows
    (2 R/a)^(-3/4): phi* (2 R/a)^(3/4) is 0.99916 at R/a 1e12.
    """
    if not (0.0 < lo < hi < PHI_MAX):
        raise ValueError(f"need 0 < lo < hi < pi/4, got lo={lo!r}, hi={hi!r}")
    # with the window check, this proves every angle sampled below valid
    validate(base._replace(phi=lo))
    _check_options(rel_tol, 1)
    rho = base.R / base.a
    # f_x < 0, so |f_x| rises where d f_x / d phi < 0
    d_lo, d_hi = _dfx_dphi(rho, lo), _dfx_dphi(rho, hi)
    if not d_lo < 0.0 < d_hi:
        raise NoInteriorMaximum(f"|f_x| does not rise at lo={lo!r} and fall at hi={hi!r}")
    t, end, steps = _zero(lambda t: _dfx_dphi(rho, math.exp(t)), math.log(lo), d_lo, math.log(hi), d_hi)
    phi_star, other = math.exp(t), math.exp(end)
    if not lo < phi_star < hi:
        raise NoInteriorMaximum(f"the peak lies within rounding of the window edge, at phi={phi_star!r}")
    f_x_star = _reduced(base.R, rho, phi_star, _scale(base))[0]
    # two derivatives at the window's ends, one per step, and f_x at phi*
    return OptimumReport(phi_star, f_x_star, (min(phi_star, other), max(phi_star, other)), steps, steps + 3)


def _dfx_dphi(rho: float, phi: float) -> float:
    # d f_x / d phi on a wing rho gaps long, in units of K L / a^3 per
    # radian.  f_x = -x / (15 c^4), where forces._reduced's
    # x = s (H_x + K_x / w^3) is P (Z (B E + 2 delta S) + P^2 G / 3)
    # + 2 v c y^3 S^2 with P = s q, Z = q / Q, S = s U = c - delta,
    # B = 2 + 2r + r^2, E = delta^2 + v c^2 and G = 2 + v (2 + 6r + 9r^2
    # + 3r^3), differentiated factor by factor.
    # U' = -U (U + s delta) / c^2 enters only through r' = y^2 k and
    # y' = -y r k, k = (y + s delta r) / c^2, and P' = q (c delta (1 + r)
    # - s^2 - r) / c, so no factor's derivative cancels.  The plain
    # x' = c J + s J' sums two terms about x / phi in size on long wings;
    # here the largest are about x' / (s^2 rho), so at R/a 1e12 phi* is
    # within 1e-10 of the root, not 3e-8
    c, s = math.cos(phi), math.sin(phi)
    delta = c / (1.0 + s * rho)
    U = rho * delta
    Q = math.hypot(1.0, U)
    r, y = 1.0 / Q, U / Q
    q = U * (U / (1.0 + Q))
    P, Z, S = s * q, q / Q, s * U
    w = 1.0 + 2.0 * s * rho
    v = 1.0 / (w * w * w)
    B, E, g = 2.0 + r * (2.0 + r), delta * delta + v * (c * c), 2.0 + r * (6.0 + r * (9.0 + 3.0 * r))
    inner, y3 = B * E + 2.0 * delta * S, y * y * y
    x = P * (Z * inner + P * P * (2.0 + v * g) / 3.0) + 2.0 * v * c * y3 * S * S
    k = (y + s * delta * r) / (c * c)
    d_delta, d_S, d_r = -delta * (s / c + U), delta * U - s * S / c, y * y * k
    d_P, d_v = q * (c * delta * (1.0 + r) - s * s - r) / c, -6.0 * c * (rho / w) * v
    d_E = 2.0 * delta * d_delta + d_v * (c * c) - 2.0 * v * c * s
    d_G = d_v * g + v * d_r * (6.0 + r * (18.0 + 9.0 * r))
    d_x = (
        d_P * (Z * inner + P * P * (2.0 + v * g))
        + P * (Z * (2.0 * d_r * (1.0 + r) * E + B * d_E + 2.0 * (d_delta * S + delta * d_S)) - d_r * inner)
        + P * P * P * d_G / 3.0
        + 2.0 * y3 * S * ((c * d_v - s * v) * S + v * c * (2.0 * d_S - 3.0 * S * r * k))
    )
    # on short wings the terms shrink like rho^4: below about 1e-77 gaps
    # they are no normal floats, and the sign of their sum is noise
    t = 4.0 * s * x / c
    d = -(d_x + t) / (15.0 * c * c * c * c)
    if not _FLOAT_MIN <= abs(d_x) + t < math.inf:
        raise NonFiniteSample(phi, d, "df_x/dphi")
    return d


def _zero(f, a: float, fa: float, b: float, fb: float) -> tuple[float, float, int]:
    """Brent's zero of ``f`` between ``a`` and ``b``, where ``fa`` and ``fb`` differ in sign.

    Brent (1973), ch. 4: each step takes the secant or inverse quadratic
    step through the last samples when it stays well inside the bracket and
    the steps shrink fast enough, and bisects otherwise.  It stops once the
    bracket is 4 eps |b| wide or f(b) = 0, and returns ``b``, the end with
    the smaller |f|, the bracket's other end and the number of steps.
    """
    # fc = fb makes the first pass start the bracket [b, c = a]
    fc, steps = fb, 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol, m = 2.0 * math.ulp(1.0) * abs(b), 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, c, steps
        p = q = 0.0
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p, q = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0)), (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
        # the interpolated step p / q, if it is safe; with p = q = 0 the step bisects
        e, d = (d, p / q) if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q) else (m, m)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        steps += 1
