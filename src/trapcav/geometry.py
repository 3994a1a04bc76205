"""Trapezoid cavity geometry: wing coordinates, visibility windows, ray lengths.

The cavity is an open mirror shell built from two straight wings of length
``R`` that are tilted by ``+phi`` and ``-phi`` away from the x axis and
separated by a gap ``a`` at the narrow end.  In the (x, z) cross section the
upper wing runs from M0 = (0, 0) towards M1 = (R cos phi, R sin phi) and the
lower wing from M3 = (0, -a) towards M2 = (R cos phi, -R sin phi - a).

A point on the upper wing at arc coordinate ``r`` exchanges vacuum rays with
the lower wing through a fan of directions.  Directions are measured by the
angle ``theta`` taken from the upper-wing direction, so a ray leaving ``r``
under ``theta`` travels along (cos(phi - theta), sin(phi - theta)), and
u = theta - 2 phi is its angle from the lower-wing direction.  The fan is
bounded by the rays aimed at the two ends of the lower wing.  Every ray from
P(r) to a lower-wing point Q(t), the corners included, comes from one
formula (c = cos phi, s = sin phi):

    sigma = c (a + 2 r s)                     distance of P(r) from the lower wing
    x     = (t - r) + s (a + 2 r s)           offset of Q(t) from the foot of
                                              that perpendicular, along the wing
    h     = hypot(c (r - t), a + (r + t) s)   length of P(r)->Q(t)

so sin u = sigma / h and cos u = x / h.  Every term of sigma is positive.
x equals t + a s - r cos 2 phi, but a float cos 2 phi rounds away the
2 r s^2 that x keeps: on a nearly flat wing 1e6 gaps long that form would
move an angle by about 5e-11 rad.  The far limit angle theta1 aims at the
far corner M2 (t = R), the near one theta2 at the near corner M3 (t = 0),
each 2 phi + atan2(sigma, x) of its corner.  sigma is positive, so both
angles lie in (2 phi, 2 phi + pi) without a clamp, and neither loses
accuracy as it nears an end.

Inside the fan the ray length back to the lower wing is

    b(r, theta) = s(r) / sin(theta - 2 phi),    s(r) = sigma,

so ``s`` is the single length scale of the fan at ``r``.  With ``phi``
restricted below pi/4 the window satisfies 2 phi < theta1 <= theta2 <= pi and
every denominator above stays strictly positive; the two angles coincide
only where the window is narrower than an ulp of theta1.

The spec, its units and :func:`validate`, the prefactor :data:`K` and the
bounds :data:`PHI_MAX` and :data:`REL_TOL_FLOOR` live in
:mod:`~trapcav.spec` and are re-exported here.  Every function takes one
wing coordinate ``r`` as a float and runs on :mod:`math` alone.
"""

import math
from typing import NamedTuple

from .errors import NumericDegeneracy, OutOfRange

# the spec's names, re-exported so that trapcav.geometry.X resolves for
# each; limit_angles and s_factor call validate by its name here, where
# bench/tracing.py wraps it
from .spec import K, PHI_MAX, REL_TOL_FLOOR, CavitySpec, Units, pressure_prefactor, validate  # noqa: F401


class AngleWindow(NamedTuple):
    """Limit angles of a visible fan, ``0 <= theta1 <= theta2 <= pi``.

    The two are equal where the fan is narrower than an ulp of theta1.
    """

    theta1: float
    theta2: float

    @property
    def width(self) -> float:
        return self.theta2 - self.theta1


def _ray(a: float, c: float, s: float, r: float, t: float) -> tuple[float, float, float]:
    # (sigma, x, h) of the ray from the upper-wing point r to the
    # lower-wing point t, in the unit of a, with c = cos(phi) and
    # s = sin(phi): sigma / h and x / h are the sine and cosine of its
    # angle u = theta - 2 phi from the lower wing (see the module docstring);
    # (r + t) s is formed as (r/2 + t/2)(2 s), the same float wherever r + t
    # is finite and r and t are 0 or above 4.5e-308 (so halving is exact),
    # and 0, not inf * 0 = NaN, on a flat wing past half the float range;
    # g = a + 2 r s overflows on a tilted wing past about 1.27e308 gaps;
    # there sigma and x take g/2 = a/2 + r s, with c and s doubled.  Halved
    # everywhere, g would move on gaps below 4.5e-308, where a/2 rounds
    h = math.hypot(c * (r - t), a + (0.5 * r + 0.5 * t) * (2.0 * s))
    g = a + r * (2.0 * s)
    if g == math.inf:
        g, c, s = 0.5 * a + r * s, 2.0 * c, 2.0 * s
    return c * g, (t - r) + s * g, h


class WingParams(NamedTuple):
    """The per-cavity constants of the wing formulas: a, R, cos and sin of phi.

    :meth:`of` computes them once per cavity in floats, with cos and sin
    from :mod:`math`.
    """

    a: float
    R: float
    cphi: float
    sphi: float

    @classmethod
    def of(cls, spec: CavitySpec) -> "WingParams":
        return cls(spec.a, spec.R, math.cos(spec.phi), math.sin(spec.phi))

    def window(self, r: float) -> tuple[float, float, float]:
        """(u1, width, s) at ``r``, without checks.

        u1 = theta1 - 2 phi is the far ray's angle from the lower wing, s
        is :func:`s_factor`, and width is theta2 - theta1, the angle
        between the unit rays to the near and the far corner, from atan2 of
        their cross product, (sigma / h_near) (R / h_far), and their dot
        product.  Each is a product of ratios with few ulps each, so the
        width keeps its digits where theta2 - theta1 would cancel (a short
        wing); this is the angle method of Kahan, "Miscalculating Area and
        Angles of a Needle-like Triangle" (2014).  Lengths enter only as
        ratios, so no product of two lengths over- or underflows at any
        gap.
        """
        a, R, c, s = self.a, self.R, self.cphi, self.sphi
        sigma, x_n, h_n = _ray(a, c, s, r, 0.0)
        _, x_f, h_f = _ray(a, c, s, r, R)
        sin_n = sigma / h_n
        width = math.atan2(sin_n * (R / h_f), sin_n * (sigma / h_f) + (x_n / h_n) * (x_f / h_f))
        return math.atan2(sigma, x_f), width, sigma


def _check_r(cav: WingParams, r: float) -> None:
    if not (0.0 <= r <= cav.R):  # NaN too
        raise OutOfRange("r", r, 0.0, cav.R)


def limit_angles(spec: CavitySpec, r: float) -> AngleWindow:
    """Visibility window (theta1, theta2) for the upper-wing point at ``r``.

    Each angle is 2 phi + atan2(sigma, x) of the ray to its corner.
    theta1 aims at the far corner M2: it stays above 2 phi (where the ray
    would run parallel to the lower wing) and climbs to pi/2 + phi at r = R.
    theta2 aims at the near corner M3: it starts at pi/2 + phi at r = 0
    and climbs towards pi as r/a grows.  Both rays share sigma, and x
    rounds no smaller on the far ray than on the near one, so theta1 <=
    theta2.  On a wing so short that its window is narrower than an ulp of
    theta1 (from about R/a 1e-16 down) the two come out equal;
    :meth:`WingParams.window` still gives the width there.  Raises
    :class:`InvalidCavity` for an invalid spec and :class:`OutOfRange` for
    an ``r`` outside [0, R].
    """
    validate(spec)
    cav = WingParams.of(spec)
    _check_r(cav, r)
    sigma, x_n, _ = _ray(cav.a, cav.cphi, cav.sphi, r, 0.0)
    _, x_f, _ = _ray(cav.a, cav.cphi, cav.sphi, r, cav.R)
    two_phi = 2.0 * spec.phi
    return AngleWindow(two_phi + math.atan2(sigma, x_f), two_phi + math.atan2(sigma, x_n))


def s_factor(spec: CavitySpec, r: float) -> float:
    """Length scale s(r) of the fan, the numerator of every ray length.

    s = cos(phi) (a + 2 r sin(phi)), the closed form of
    sin(2 phi - theta2) (a + r sin phi) / sin(phi - theta2).  Every term
    is positive, so the result is good to a few ulps for any valid cavity
    and reduces to the gap ``a`` exactly at phi = 0.  Raises
    :class:`InvalidCavity` for an invalid spec and :class:`OutOfRange` for
    an ``r`` outside [0, R].
    """
    validate(spec)
    cav = WingParams.of(spec)
    _check_r(cav, r)
    return _ray(cav.a, cav.cphi, cav.sphi, r, 0.0)[0]


def ray_length(spec: CavitySpec, r: float, theta: float) -> float:
    """Distance b from the wing point at ``r`` to the lower wing along ``theta``.

    b = s(r) / sin(theta - 2 phi), the distance along ``theta`` to the
    lower wing's line.  A direction has a length exactly where it meets
    that line ahead of P at a finite distance, that is where b is a finite
    positive float; every direction of the visible fan does, where theta -
    2 phi lies in (0, pi).  Any other direction, a NaN or infinite
    ``theta`` included, raises :class:`NumericDegeneracy`, as
    :func:`~trapcav.oracle.ray_length_intersection` does; the spec and
    ``r`` are checked first, as :func:`s_factor` checks them.
    """
    try:
        b = s_factor(spec, r) / math.sin(theta - 2.0 * spec.phi)
    except (ZeroDivisionError, ValueError):  # a zero sine; an infinite theta
        b = math.nan
    if not 0.0 < b < math.inf:  # NaN too
        raise NumericDegeneracy(f"no ray length at r={r!r}, theta={theta!r} (phi={spec.phi!r})")
    return b
