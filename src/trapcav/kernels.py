"""Per-ray Casimir pressure and the closed-form fan integrals.

Two ideal parallel plates at distance ``a`` carry (per unit area)

    energy    E(a) = -hbar c pi^2 / (720 a^3) = -K / (3 a^3)
    pressure  P(a) = -hbar c pi^2 / (240 a^4) = -K / a^4

with K = hbar c pi^2 / 240, the constant :data:`K` (2018 recommended
values of hbar and c): SI cavities take it as their prefactor, reduced ones
take 1.  ``K`` and :func:`pressure_prefactor` are defined once, in
:mod:`~trapcav.geometry`, and re-exported here.  In the ray picture each
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
from one evaluation of each primitive difference.  The kernel is
:func:`wing_pressures`, one scalar formula in :mod:`math` floats for one
cavity's parameters and one wing coordinate, and :func:`specific_pressures`
is its form for a cavity spec.  It works in units of the gap: the fan
integrals are divided by (s/a)^4 and multiplied by K / a^4, computed as
K / a / a / a / a, so neither a^4 nor s^4 is ever formed, and a tiny gap
keeps its digits until K / a^4 itself overflows.  Over the full half-space
fan (0, pi) at phi = 0 the z integral is 16/15 — the factor by which an
ideal half-space of rays beats the single perpendicular ray — and the x
integral over (0, pi/2) is +1/5, flipping sign on (pi/2, pi).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NonFiniteSample, NonPositiveGap
from .geometry import (
    K,
    AngleWindow,
    CavitySpec,
    WingParams,
    limit_angles,
    pressure_prefactor,
    validate,
)

# bench/tracing.py wraps it by its name in this module
from .geometry import s_factor  # noqa: F401


class PressureSample(NamedTuple):
    """Local pressures at arc coordinate ``r`` on the upper wing.

    ``p_z`` is the compression component (normal to the mid-plane, always
    negative: the wings attract); ``p_x`` is the expulsion component along
    the cavity axis (negative pushes the wing towards the apex).
    """

    r: float
    p_x: float
    p_z: float


def classical_casimir_pressure(a: float, k: float = K) -> float:
    """Parallel-plate Casimir pressure, -k / a^4 (attractive, so negative)."""
    if not (a > 0.0):
        raise NonPositiveGap(f"plate separation must be positive, got {a!r}")
    return -k / a / a / a / a


def _sin5_primitive(u: float) -> float:
    # antiderivative of sin^5: -c + (2/3) c^3 - (1/5) c^5, in Horner form
    c = math.cos(u)
    c2 = c * c
    return c * (c2 * (2.0 / 3.0 - c2 / 5.0) - 1.0)


def _sin4cos_primitive(u: float) -> float:
    # antiderivative of sin^4 cos: s^5 / 5
    s = math.sin(u)
    s2 = s * s
    return s * s2 * s2 / 5.0


def _fan(theta1: float, theta2: float, two_phi: float, cphi: float, sphi: float) -> tuple[float, float]:
    # (x, z) of fan_integrals from the two primitive differences, given
    # 2 phi, cos(phi) and sin(phi) of the fan's cavity
    u1, u2 = theta1 - two_phi, theta2 - two_phi
    d_g = _sin4cos_primitive(u2) - _sin4cos_primitive(u1)
    d_f = _sin5_primitive(u2) - _sin5_primitive(u1)
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
    exactly zero.
    """
    return _fan(window.theta1, window.theta2, 2.0 * phi, math.cos(phi), math.sin(phi))


def wing_pressures(cav: WingParams, k: float, r: float) -> tuple[float, float]:
    """Local pressure components (p_x, p_z) at the wing coordinate ``r``.

    The kernel's one formula: ``cav`` holds one cavity's geometry and ``k``
    its prefactor.  p = (k / a^4) (a / s)^4 times the fan integrals, where
    s/a lies in [cos(phi), 1 + 2 R/a]: its fourth power never goes
    subnormal, and overflows to inf only on wings so long that the
    pressure is 0.  The fast path tests the range of ``r`` and the fan;
    only when a test fails does :func:`limit_angles` run, to raise
    :class:`OutOfRange` or :class:`DegenerateFan`.  A component that is not
    finite (k / a^4 overflows at SI gaps below about 1.6e-84 m) raises
    :class:`NonFiniteSample` naming it and ``r``.  Nothing else is
    validated, so the caller validates the cavity once.
    """
    theta1, theta2 = cav.angles(r)
    if not (0.0 <= r <= cav.R and theta1 < theta2):
        limit_angles(cav, r)  # raises OutOfRange or DegenerateFan
    x, z = _fan(theta1, theta2, cav.two_phi, cav.cphi, cav.sphi)
    a = cav.a
    q = cav.s(r) / a
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
    ``spec`` and raises :class:`OutOfRange` or :class:`DegenerateFan` for
    an ``r`` off the wing or with an empty fan, and
    :class:`NonFiniteSample` for a component that is not finite.  This is
    :func:`wing_pressures` for one cavity spec.
    """
    validate(spec)
    p_x, p_z = wing_pressures(WingParams.of(spec), pressure_prefactor(spec), r)
    return PressureSample(r=r, p_x=p_x, p_z=p_z)
