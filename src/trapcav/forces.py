"""Total forces on a wing, from one closed form.

The force per cavity width L is the pressure integrated along the wing,

    F_z = L * integral_0^R p_z(r) dr      (compression, < 0)
    F_x = L * integral_0^R p_x(r) dr      (expulsion; < 0 for phi > 0)

and both integrals have one closed form.  Every force is computed in units
of the gap, from rho = R/a and phi alone, and K L / a^3 is applied once.

The p-integral.  The force is the angle-free double integral over both
wings; averaged with its swap (r, t) -> (t, r) the integrand has one sign,
and its integral in q = r - t is elementary, which leaves one integral
along p = r + t,

    f_x a^3 / (K L) = -(s / c) integral_0^(2 rho) F_x(y) / (15 g^4) dp
    f_z a^3 / (K L) = -integral_0^(2 rho) F_z(y) / (15 g^4) dp

with F_x = y^3 (5 - 3 y^2), F_z = y (15 - 10 y^2 + 3 y^4),
y = c m / hypot(c m, g), m = min(p, 2 rho - p), g = 1 + s p, c = cos phi
and s = sin phi (the derivation is in :mod:`~trapcav.oracle`, whose force
oracle sums this integral on graded panels).

Its closed form.  Substitute u = c m / g on each half, so that
y = u / hypot(1, u).  On the first half (m = p) dp / g^4 = (c - s u)^2 du / c^3; on the second
(m = 2 rho - p, g = w - s m, w = 1 + 2 s rho) dm / g^4 = (c + s u)^2 du /
(w^3 c^3).  Both halves run u from 0 to U = c rho / (1 + s rho), so with
the moments A_k = integral_0^U u^k F(y) du

    c^3 I[F] = (1 + w^-3) (c^2 A0 + s^2 A2) - 2 c s (1 - w^-3) A1.

With Q = hypot(1, U) and q = Q - 1 = U^2 / (1 + Q) every moment is
algebraic, with positive coefficients:

    A0x = q^2 (2Q^2 + 2Q + 1) / Q^3        A0z = q (8Q^3 + 5Q^2 + Q + 1) / Q^3
    A1x = U^5 / Q^3                        A1z = U^3 (4Q^2 + 1) / Q^3
    A2x = q^3 (2Q^3 + 6Q^2 + 9Q + 3) / (3Q^3)
    A2z = q^2 (8Q^4 + 16Q^3 + 12Q^2 + 6Q + 3) / (3Q^3)

The sum is H + w^-3 K, where K = c^2 A0 + 2 c s A1 + s^2 A2 has only
positive terms and H = c^2 A0 - 2 c s A1 + s^2 A2 has one negative one.
With delta = c - s U = c / (1 + s rho) and U^2 = q (Q + 1), H is

    H_x = (2/3) s^2 q^3 + 2 s delta U q^2 / Q
          + delta^2 q^2 (2Q^2 + 2Q + 1) / Q^3
    H_z = s^2 q^2 (8Q + 7) / 3 + 2 s delta U q (4Q + 1) / Q
          + delta^2 q (8Q^3 + 5Q^2 + Q + 1) / Q^3,

again with positive coefficients only, and

    f_x a^3 / (K L) = -(s / c) (H_x + w^-3 K_x) / (15 c^3)
    f_z a^3 / (K L) = -(H_z + w^-3 K_z) / (15 c^3).

``tests/test_certificates.py`` proves the substitution, the six moments
and both forms of H.  No term cancels another, on a wing of any length,
so each component keeps the digits of its own size; there is no branch on
the wing's length, no quadrature and no table.

What the form shows.  Every term is positive, so on every wing
f_x < 0 and f_z < 0 for phi > 0: each wing is pushed toward the apex,
the cavity's least opening; at phi = 0, f_x = 0.  As y^3 (5 - 3 y^2) < 2,
y (15 - 10 y^2 + 3 y^4) < 8 and integral_0^(2 rho) g^-4 dp = (1 - w^-3) / (3 s),

    |f_x| < 2 (1 - w^-3) / (45 c),        |f_z| < 8 (1 - w^-3) / (45 s),

in units of K L / a^3.  On an infinitely long wing delta -> 0 and
w^-3 -> 0, and H_x -> (2/3) (1 - s)^3 / s, so the expulsion of each wing
tends to -2 (1 - sin phi)^3 / (45 cos^4 phi) K L / a^3; its expansion in
phi begins -2/45 + (2/15) phi.  As phi -> 0 at fixed rho, U -> rho and
f_x / phi -> -(2/15) A0x = -(2/15) (2Q - 2 - 1/Q + 1/Q^3), Q = hypot(1, rho).

Floats.  Each term is a product of bounded factors (s U <= c, s q,
q / Q <= 1, U / Q <= 1 and 1/Q) and of at most one unbounded one (q or U,
about rho on flat wings), which the z sum divides by 15 first.  So the
terms stay finite wherever f_z is, up to flat wings about 1.685e308 gaps
long.  The phi* search takes the root of d f_x / d phi, which
``trapcav.analysis._dfx_dphi`` writes from this form; the pressure
profiles are :mod:`~trapcav.kernels`'s.
"""

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonFiniteSample
from .spec import REL_TOL_FLOOR, CavitySpec, pressure_prefactor, validate

if TYPE_CHECKING:
    from .kernels import PressureSample

# the reported error bound, per unit of a force component's own size:
# 32 eps.  A first-order rounding count of the closed form, in which
# cos and sin and hypot are within 1 ulp and every other inexact
# operation rounds once, weights each rounding by the share of the terms
# it enters (a positive sum's relative error is a weighted mean of its
# terms', plus its own rounding).  Its largest value over R/a 1e-25..1e307
# and phi 0..pi/4 is 27.8 eps for f_x (long wings near pi/4) and 22 eps for
# f_z; tests/test_forces.py repeats the count on this code
_ROUNDING = 32.0 * sys.float_info.epsilon

# the smallest normal float: an f_z below it has lost its digits
_FLOAT_MIN = sys.float_info.min


def integrate_adaptive(*args, **kwargs):
    # bench/tracing.py wraps integrate_adaptive by its name in this module;
    # the quadrature loads on the first call, so that importing this module
    # imports no numpy
    from .quadrature import integrate_adaptive

    return integrate_adaptive(*args, **kwargs)


def specific_pressures(spec: CavitySpec, r: float) -> "PressureSample":
    # bench/tracing.py wraps specific_pressures by its name in this module;
    # the kernels load on the first call, so that a process that only runs
    # the closed forms does not compile them
    from .kernels import specific_pressures

    return specific_pressures(spec, r)


class ForceResult(NamedTuple):
    """Forces on ``wing_count`` wings, with bounds on their rounding errors.

    ``err_x`` and ``err_z`` bound the rounding error of the closed form:
    32 eps times each component's own size.  ``converged`` is True for
    every computed result, since that bound lies below the smallest
    ``rel_tol`` accepted, ``REL_TOL_FLOOR`` (50 eps); only a sweep's
    flagged rows, and results built by hand, carry False.
    """

    spec: CavitySpec
    f_x: float
    f_z: float
    err_x: float
    err_z: float
    wing_count: int = 1
    converged: bool = True


def _check_options(rel_tol: float, wing_count: int) -> None:
    if wing_count not in (1, 2):
        raise ValueError(f"wing_count must be 1 or 2, got {wing_count!r}")
    if not (REL_TOL_FLOOR <= rel_tol < math.inf):
        raise ValueError(f"rel_tol must be at least {REL_TOL_FLOOR!r} and finite, got {rel_tol!r}")


def total_forces(spec: CavitySpec, rel_tol: float = 1e-9, *, wing_count: int = 1) -> ForceResult:
    """Both force components on one wing, from the closed form.

    One formula serves every wing length: the moments of the one-signed
    p-integral, summed as positive terms only (see the module docstring),
    at a fixed cost in float operations.  ``err_x`` and ``err_z`` are
    k eps |f_x| and k eps |f_z| with k = 32, from a first-order rounding
    count of those positive sums whose largest value over the domain is
    27.8 eps (f_x) and 22 eps (f_z), where no term underflows.  Against
    the moment form at 80 digits the largest error seen was 8.1 eps of the
    component's own size; within a few times R/a 1.5e-154, where f_z nears
    the smallest normal float, its terms are subnormal and it was up to
    14 eps.
    ``rel_tol`` is only checked: it must be at least ``REL_TOL_FLOOR``
    (50 eps) and finite, which the 32 eps bounds always meet, so every
    result is ``converged``.  With ``wing_count=2`` the x force and its
    bound double and the z force cancels exactly between the mirror-image
    wings.  A force
    that is not finite, or an f_z that is not a normal float (SI gaps below
    about 1e-112 m, or R/a below about 1e-154), raises
    :class:`NonFiniteSample`.  So do flat wings longer than about 1.685e308
    gaps, where f_z, about -(16/15) R/a, itself overflows.
    """
    validate(spec)
    _check_options(rel_tol, wing_count)
    return _forces(spec, _scale(spec), wing_count)


def _scale(spec: CavitySpec) -> float:
    # K L / a^3, the scale of a wing's forces in units of the gap
    return pressure_prefactor(spec) / spec.a / spec.a / spec.a * spec.L


def _forces(spec: CavitySpec, scale: float, wing_count: int) -> ForceResult:
    # a validated spec's forces at its _scale, which a sweep computes once.
    # Each bound, 32 eps of its component, is below REL_TOL_FLOOR (50 eps)
    # times that component, so it meets every rel_tol that _check_options
    # accepts and every result is converged
    a, R, _, phi, _ = spec
    f_x, f_z = _reduced(R, R / a, phi, scale)
    # abs, not -f_x: the magnitude of f_x = +0.0 is +0.0
    err_x, err_z = _ROUNDING * abs(f_x), _ROUNDING * -f_z
    if wing_count == 2:
        f_x, err_x = 2.0 * f_x, 2.0 * err_x
        f_z = err_z = 0.0
    # as ForceResult(...), without the NamedTuple's Python-level __new__
    return tuple.__new__(ForceResult, (spec, f_x, f_z, err_x, err_z, wing_count, True))


def _reduced(R: float, rho: float, phi: float, scale: float) -> tuple[float, float]:
    # (f_x, f_z) on a wing R long and rho gaps long at half-angle phi: the
    # closed form of the module docstring times scale.  A force that is no
    # finite float, or an f_z that is no normal one, raises NonFiniteSample.
    # x is s (H_x + K_x / w^3) and z is (H_z + K_z / w^3) / 15, each term a
    # product of bounded factors (r = 1/Q, y = U/Q): the A0 terms of H and K share
    # dc = delta^2 + c^2 / w^3, and in z the one unbounded factor, q or U,
    # is divided by 15 first, so that a flat wing's 8 q cannot overflow
    c, s = math.cos(phi), math.sin(phi)
    sr = s * rho
    delta = c / (1.0 + sr)
    U = rho * delta
    Q = math.hypot(1.0, U)
    r, y = 1.0 / Q, U / Q
    q = U * (U / (1.0 + Q))
    qr, sU, sq = q / Q, s * U, s * q
    w = 1.0 + 2.0 * sr
    v = 1.0 / (w * w * w)
    dc = delta * delta + v * (c * c)
    ds = 2.0 * delta * sU
    vc = 2.0 * v * c * sU
    sq2 = sq * sq
    x = sq * (
        qr * ((2.0 + r * (2.0 + r)) * dc + ds) + sq2 * (2.0 + v * (2.0 + r * (6.0 + r * (9.0 + 3.0 * r)))) / 3.0
    ) + vc * sU * (y * y * y)
    q15 = q / 15.0
    z = (
        q15 * ((8.0 + r * (5.0 + r * (1.0 + r))) * dc + ds * (4.0 + r) + 8.0 * (1.0 + v) * sq2 / 3.0)
        + sq2 * (15.0 + v * (24.0 + r * (12.0 + r * (6.0 + 3.0 * r)))) / 45.0
        + vc * (U / 15.0) * y * (4.0 + r * r)
    )
    c3 = c * c * c
    # 0.0 - x, not -x, keeps f_x = +0.0 at phi = 0
    f_x, f_z = (0.0 - x / (15.0 * c3 * c)) * scale, -z / c3 * scale
    if not math.isfinite(f_x):
        raise NonFiniteSample(R, f_x, "f_x")
    # f_z must be a normal float and finite: abs(inf) >= _FLOAT_MIN holds
    if not _FLOAT_MIN <= abs(f_z) < math.inf:
        raise NonFiniteSample(R, f_z, "f_z")
    return f_x, f_z
