"""Per-ray Casimir pressure and the closed-form fan integrals.

Two ideal parallel plates at distance ``a`` carry (per unit area)

    energy    E(a) = -hbar c pi^2 / (720 a^3) = -K / (3 a^3)
    pressure  P(a) = -hbar c pi^2 / (240 a^4) = -K / a^4

with K = hbar c pi^2 / 240, the constant :data:`K` (2018 recommended
values of hbar and c): SI cavities take it as their prefactor, reduced ones
take 1.  ``K`` and :func:`pressure_prefactor` are defined once, in
:mod:`~trapcav.geometry`, which the numpy-free force path imports, and
re-exported here.  In the ray picture each direction ``theta`` in
the visible fan contributes the parallel-plate pressure of its own ray
length b(r, theta) = s / sin(theta - 2 phi), projected onto the wing frame.
Substituting b and integrating over theta turns the fourth power of the
sine back into plain trig:

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
from one evaluation of each primitive difference.  The kernel is written
once, in numpy ufuncs, as :func:`wing_pressures`: it takes one cavity's
parameters as floats and any array of wing coordinates, and both limit
angles come from one ``atan2`` call.  s^4 is the product (s s)^2, exact
in IEEE arithmetic, so a node has the same bits alone and in an array.
:func:`pressure_arrays` is its form for a cavity spec, and
:func:`specific_pressures` its one-point form.  Over the full half-space
fan (0, pi) at phi = 0 the z integral is 16/15 — the factor by which an
ideal half-space of rays beats the single perpendicular ray — and the x
integral over (0, pi/2) is +1/5, flipping sign on (pi/2, pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveGap
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


@dataclass(frozen=True)
class PressureSample:
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
    return -k / a**4


def _sin5_primitive(u):
    # antiderivative of sin^5: -c + (2/3) c^3 - (1/5) c^5; the powers are
    # products, as numpy's ``**`` is ~20x slower on the negative cosines of
    # the back half of the fan
    c = np.cos(u)
    c2 = c * c
    return c * (c2 * (2.0 / 3.0 - c2 / 5.0) - 1.0)


def _sin4cos_primitive(u):
    # antiderivative of sin^4 cos: s^5 / 5
    s = np.sin(u)
    s2 = s * s
    return s * s2 * s2 / 5.0


def _fan(theta: np.ndarray, two_phi: float, cphi: float, sphi: float) -> np.ndarray:
    # x and -z of fan_integrals, stacked on a new first axis: both limit
    # angles come in one array (theta[0], theta[1]), so each primitive is
    # one pass, and 2 phi, cos(phi) and sin(phi) of the fan's cavity
    u = theta - two_phi
    primitives = np.array((_sin4cos_primitive(u), _sin5_primitive(u)))
    # dG5, dF5
    d = primitives[:, 1] - primitives[:, 0]
    # cos(phi) dG5 - sin(phi) dF5, -cos(phi) dF5 - sin(phi) dG5
    out = cphi * d
    out[1:] *= -1.0
    out -= sphi * d[::-1]
    return out


def fan_integrals(window: AngleWindow, phi: float) -> tuple:
    """Closed forms (x, z) of the expulsion and compression fan integrals.

    x = integral of sin^4(theta - 2 phi) cos(theta - phi) d theta
      = cos(phi) dG5 - sin(phi) dF5
    z = integral of sin^4(theta - 2 phi) sin(theta - phi) d theta
      = cos(phi) dF5 + sin(phi) dG5

    over the window, with u = theta - 2 phi; both primitive differences are
    evaluated once and shared.  A window of arrays gives arrays of its
    shape.  z is positive for any non-empty window inside the fan.  x
    changes sign where the fan crosses theta = pi/2 + 2 phi; the full
    half-space fan at phi = 0 integrates to exactly zero.
    """
    theta = np.array((window.theta1, window.theta2))
    x, minus_z = _fan(theta, 2.0 * phi, math.cos(phi), math.sin(phi))
    return x, -minus_z


# s^4 overflows to inf on long wings, where the pressure is 0, and
# underflows to 0 at tiny gaps, where the pressure is not finite, which
# pressure_profile reports as NonFiniteSample: numpy need not warn about either
@np.errstate(over="ignore", divide="ignore")
def wing_pressures(cav: WingParams, k: float, r) -> np.ndarray:
    """Local pressure components (p_x, p_z) at the wing coordinates ``r``.

    The kernel's one formula: ``cav`` holds one cavity's geometry and ``k``
    its prefactor.  Returns p_x and p_z as the two rows of one array.  An
    array and one point give a node the same bits: s^4 is (s s)^2, exact
    IEEE products.  The fast path tests the range of ``r``, then the fans;
    only when a test fails does :func:`limit_angles` run, to raise
    :class:`OutOfRange` or :class:`DegenerateFan` for the first offending
    ``r``.  Nothing else is validated, so the caller validates the cavity
    once; s comes from :meth:`WingParams.s` on the coordinates that those
    checks have passed.
    """
    r = np.asarray(r)
    theta = cav.angles(r)
    if not ((0.0 <= r) & (r <= cav.R)).all() or (theta[0] >= theta[1]).any():
        limit_angles(cav, r)  # raises OutOfRange or DegenerateFan
    s2 = np.square(cav.s(r))
    return _fan(theta, cav.two_phi, cav.cphi, cav.sphi) * (k / (s2 * s2))


def pressure_arrays(spec: CavitySpec, r) -> np.ndarray:
    """Local pressure components (p_x, p_z) at the wing coordinates ``r``.

    p = (K / s^4) times the fan integrals, in the shape of ``r``, as the
    two rows of one array: one call
    evaluates a whole batch of nodes.  p_z carries an explicit minus sign
    (compression pulls the wings together); p_x keeps the sign of its
    integral, negative wherever the fan is dominated by forward-leaning
    rays.  Every call validates ``spec`` and raises :class:`OutOfRange` or
    :class:`DegenerateFan` naming the first offending ``r``.  This is
    :func:`wing_pressures` for one cavity.
    """
    validate(spec)
    return wing_pressures(WingParams.of(spec), pressure_prefactor(spec), r)


def specific_pressures(spec: CavitySpec, r: float) -> PressureSample:
    """Local pressure components at one wing coordinate ``r``.

    The scalar form of :func:`pressure_arrays`, with the same checks.
    """
    p_x, p_z = pressure_arrays(spec, r)
    return PressureSample(r=r, p_x=float(p_x), p_z=float(p_z))
