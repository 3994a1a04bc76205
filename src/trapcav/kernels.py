"""Per-ray Casimir pressure, the closed-form fan integrals and pressure profiles.

Two ideal parallel plates at distance ``a`` carry (per unit area)

    energy    E(a) = -hbar c pi^2 / (720 a^3) = -K / (3 a^3)
    pressure  P(a) = -hbar c pi^2 / (240 a^4) = -K / a^4

with K = hbar c pi^2 / 240, the constant :data:`K` (2018 recommended
values of hbar and c): SI cavities take it as their prefactor, reduced ones
take 1.  ``K`` and :func:`pressure_prefactor` are defined once, in
:mod:`~trapcav.spec`, and re-exported here.  In the ray picture each
direction ``theta`` in the visible fan contributes the parallel-plate
pressure of its own ray length b(r, theta) = s / sin(theta - 2 phi),
projected onto the wing frame.  Substituting b and integrating over theta
turns the fourth power of the sine back into plain trig:

    p_z(r) = -(K / s^4) * integral_theta1^theta2 sin^4(theta - 2 phi)
                                  sin(theta - phi) d theta
    p_x(r) = +(K / s^4) * integral_theta1^theta2 sin^4(theta - 2 phi)
                                  cos(theta - phi) d theta

With u = theta - 2 phi both integrands split over sin^5 u and sin^4 u cos u,
whose antiderivatives are

    F5(u) = -cos u + (2/3) cos^3 u - (1/5) cos^5 u      (for sin^5)
    G5(u) = (1/5) sin^5 u                               (for sin^4 cos)

so the z integrand integrates to cos(phi) dF5 + sin(phi) dG5 and the x
integrand to cos(phi) dG5 - sin(phi) dF5; :func:`fan_integrals` returns both
from one evaluation of each primitive difference.  Each difference is
written as a product with sin h, h the window's half-width, so a narrow
window (a short wing) keeps the digits that F5(u2) - F5(u1) would lose to
cancellation.  The kernel takes u1 and that width from
:meth:`~trapcav.geometry.WingParams.window`: u1 is atan2 of the far corner
ray's sine and cosine, and the width is atan2 of the cross and the dot
product of the two unit rays to the lower-wing corners, not
theta2 - theta1, so it keeps its digits too.  The kernel is
:func:`wing_pressures`, one scalar formula in :mod:`math` floats for one
cavity's parameters and one wing coordinate;
:func:`specific_pressures` is its form for a cavity spec, and
:func:`pressure_profile` samples it along a wing.  It works in units of the gap: the fan
integrals are divided by (s/a)^4 and multiplied by K / a^4, computed as
K / a / a / a / a, so neither a^4 nor s^4 is ever formed, and a tiny gap
keeps its digits until K / a^4 itself overflows.  Over the full half-space
fan (0, pi) at phi = 0 the z integral is 16/15 — the factor by which an
ideal half-space of rays beats the single perpendicular ray — and the x
integral over (0, pi/2) is +1/5, flipping sign on (pi/2, pi).
"""

import math
import operator
from typing import NamedTuple

from .errors import NonFiniteSample, NonPositiveGap
from .geometry import (
    K,
    AngleWindow,
    CavitySpec,
    WingParams,
    _check_r,
    pressure_prefactor,
    validate,
)

# bench/tracing.py wraps them by their names in this module
from .geometry import limit_angles, s_factor  # noqa: F401


class PressureSample(NamedTuple):
    """Local pressures at arc coordinate ``r`` on the upper wing.

    ``p_z`` is the compression component (normal to the mid-plane, always
    negative: the wings attract); ``p_x`` is the expulsion component along
    the cavity axis (negative pushes the wing towards the apex).
    """

    r: float
    p_x: float
    p_z: float


class PressureProfile(NamedTuple):
    """Pressure samples along the wing, strictly increasing in ``r``."""

    spec: CavitySpec
    samples: tuple[PressureSample, ...]


def classical_casimir_pressure(a: float, k: float = K) -> float:
    """Parallel-plate Casimir pressure, -k / a^4 (attractive, so negative)."""
    if not (a > 0.0):
        raise NonPositiveGap(f"plate separation must be positive, got {a!r}")
    return -k / a / a / a / a


def _fan(u1: float, width: float, cphi: float, sphi: float) -> tuple[float, float]:
    # (x, z) of fan_integrals over u in [u1, u1 + width], u = theta - 2 phi,
    # given cos(phi) and sin(phi) of the fan's cavity.  With h the window's
    # half-width and m its midpoint in u, cos u2 - cos u1 = -2 sin m sin h
    # and sin u2 - sin u1 = 2 cos m sin h, and c2^k - c1^k is (c2 - c1)
    # times a sum of products of c1 and c2, so a narrow window takes no
    # difference of nearly equal primitives
    h = 0.5 * width
    u2, m = u1 + width, u1 + h
    sh = math.sin(h)
    c1, c2, s1, s2 = math.cos(u1), math.cos(u2), math.sin(u1), math.sin(u2)
    # dF5 = (c2 - c1) (-1 + (2/3) (c2^3 - c1^3)/(c2 - c1) - (1/5) (c2^5 - c1^5)/(c2 - c1)),
    # where (c2^3 - c1^3)/(c2 - c1) = p + t and (c2^5 - c1^5)/(c2 - c1) = p (p + t) - t^2
    p, t = c1 * c1 + c2 * c2, c1 * c2
    d_f = -2.0 * math.sin(m) * sh * (-1.0 + (2.0 / 3.0) * (p + t) - 0.2 * (p * (p + t) - t * t))
    # dG5 = (1/5) (s2 - s1) (s2^5 - s1^5)/(s2 - s1)
    p, t = s1 * s1 + s2 * s2, s1 * s2
    d_g = 0.4 * math.cos(m) * sh * (p * (p + t) - t * t)
    return cphi * d_g - sphi * d_f, cphi * d_f + sphi * d_g


def fan_integrals(window: AngleWindow, phi: float) -> tuple:
    """Closed forms (x, z) of the expulsion and compression fan integrals.

    x = integral of sin^4(theta - 2 phi) cos(theta - phi) d theta
      = cos(phi) dG5 - sin(phi) dF5
    z = integral of sin^4(theta - 2 phi) sin(theta - phi) d theta
      = cos(phi) dF5 + sin(phi) dG5

    over the window, with u = theta - 2 phi; both primitive differences are
    evaluated once and shared.  z is positive for any non-empty window
    inside the fan.  x changes sign where the fan crosses
    theta = pi/2 + 2 phi; the full half-space fan at phi = 0 integrates to
    exactly zero.  Both keep their relative digits on every cavity's window,
    which reaches past u = pi/4.  A window that lies wholly near u = 0 or
    u = pi loses them, as the primitive differences cancel there: z is off
    by 3.6e-7 relative at u1 = 1e-3, width 1e-3, phi = 0.2, against a
    50-digit quadrature.  The width is theta2 - theta1, so a window whose
    limit angles coincide in floats (R/a below about 1e-16) integrates to
    0; the kernel and ``verify`` take the width from
    :meth:`~trapcav.geometry.WingParams.window` instead.
    """
    return _fan(window.theta1 - 2.0 * phi, window.width, math.cos(phi), math.sin(phi))


def wing_pressures(cav: WingParams, k: float, r: float) -> tuple[float, float]:
    """Local pressure components (p_x, p_z) at the wing coordinate ``r``.

    The kernel's one formula: ``cav`` holds one cavity's geometry and ``k``
    its prefactor.  p = (k / a^4) (a / s)^4 times the fan integrals, where
    s/a lies in [cos(phi), 1 + 2 R/a]: its fourth power never goes
    subnormal, and overflows to inf only on wings so long that the
    pressure is 0.  u1 = theta1 - 2 phi, the window's width and s come
    from :meth:`WingParams.window`, so a window narrower than an ulp of
    theta1 (a wing of R/a below about 1e-16) keeps its width.  An ``r``
    outside [0, R], NaN included, raises :class:`OutOfRange`.  A component
    that is not finite (k / a^4 overflows at SI gaps below about 1.6e-84 m)
    raises :class:`NonFiniteSample` naming it and ``r``.  Nothing else is
    validated, so the caller validates the cavity once.
    """
    _check_r(cav, r)
    u1, width, sigma = cav.window(r)
    x, z = _fan(u1, width, cav.cphi, cav.sphi)
    a = cav.a
    q = sigma / a
    q2 = q * q
    scale = k / a / a / a / a / (q2 * q2)
    p_x, p_z = x * scale, -z * scale
    for component, value in (("p_x", p_x), ("p_z", p_z)):
        if not math.isfinite(value):
            raise NonFiniteSample(r, value, component)
    return p_x, p_z


def specific_pressures(spec: CavitySpec, r: float) -> PressureSample:
    """Local pressure components at one wing coordinate ``r``.

    p_z carries an explicit minus sign (compression pulls the wings
    together); p_x keeps the sign of its integral, negative wherever the
    fan is dominated by forward-leaning rays.  Every call validates
    ``spec`` and raises :class:`OutOfRange` for an ``r`` off the wing and
    :class:`NonFiniteSample` for a component that is not finite; a wing of
    any length short of that gets its pressure.  This is
    :func:`wing_pressures` for one cavity spec.
    """
    validate(spec)
    p_x, p_z = wing_pressures(WingParams.of(spec), pressure_prefactor(spec), r)
    return PressureSample(r=r, p_x=p_x, p_z=p_z)


def pressure_profile(spec: CavitySpec, n: int) -> PressureProfile:
    """Sample both pressure components at ``n`` evenly spaced points on [0, R].

    Endpoints are included exactly: r_i = R * i / (n - 1), except that the
    last point is r = R itself, since R * (n - 1) / (n - 1) can round one
    ulp above R.  Each sample has the bits of a one-point
    :func:`specific_pressures` call.  A count that is not an integer, or is
    below 2, raises ``ValueError``, and a sample that is not finite
    (K / a^4 overflows at SI gaps below about 1.6e-84 m) raises
    :class:`NonFiniteSample` naming the component and its ``r``.
    """
    validate(spec)
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"profile needs a whole number of samples, got {n!r}") from None
    if n < 2:
        raise ValueError(f"profile needs at least 2 samples, got {n!r}")
    cav, k = WingParams.of(spec), pressure_prefactor(spec)
    samples = []
    for i in range(n):
        r = min(spec.R * i / (n - 1), spec.R)
        samples.append(PressureSample(r, *wing_pressures(cav, k, r)))
    return PressureProfile(spec=spec, samples=tuple(samples))
