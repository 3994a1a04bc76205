"""Symbolic certificates of the three-ray form's algebra.

sympy proves each identity exactly.  Both sides are rational in
sigma = sin u, kappa = cos u, c = cos phi and s = sin phi, with
C = cos 2 phi = c^2 - s^2 and S = sin 2 phi = 2 c s, and d/du takes
sigma to kappa and kappa to -sigma.  An identity holds when the numerator
of the difference of its sides reduces to zero modulo sigma^2 + kappa^2 - 1
and c^2 + s^2 - 1.

The primitives proved are those of ``_ray`` in ``tests/test_forces.py``,
the one-call-per-ray form that pins ``trapcav.forces._three_ray`` bit for
bit.  Its float literals are integers, and its divisions by 45.0 and 15.0
come back from ``nsimplify`` as the fractions they stand for.  The proofs
also touch the code: ``trapcav.forces._three_ray`` is compared with the
proved three-ray expression at 50 digits, and ``trapcav.geometry._ray``
with the proved corner substitution in floats, so a mistyped coefficient
in ``src/`` fails here.
"""

import functools
import math

import mpmath
import pytest
import sympy as sp

from test_forces import _ray
from trapcav.forces import _ROUNDING, _three_ray
from trapcav.geometry import _ray as _corner_ray

c, s, sg, ka, w = sp.symbols("c s sigma kappa w", positive=True)
C, S = c**2 - s**2, 2 * c * s
# the sine of the ray angle plus 2 phi, sin(u + 2 phi)
MU = C * sg + S * ka
PYTHAGORAS = [sg**2 + ka**2 - 1, c**2 + s**2 - 1]

# ray M, either corner seen from its own wing end (u = pi/2 - phi)
M_F = (9 * s**4 - 10 * s**2 + 9) / (45 * c)
M_G = s * (1 - 3 * s**2) / 15


def vanishes(expr) -> bool:
    numerator = sp.fraction(sp.together(expr))[0]
    return sp.reduced(sp.expand(numerator), PYTHAGORAS, sg, ka, c, s)[1] == 0


def d_du(expr):
    return sp.diff(expr, sg) * ka - sp.diff(expr, ka) * sg


def exact(pair):
    return tuple(sp.nsimplify(e, rational=True) for e in pair)


@functools.cache
def primitives():
    # (I_F, I_G) at the ray of sine sigma and cosine kappa
    return exact(_ray(sg, ka, MU, sg, 1, C, S))


def test_primitives_are_antiderivatives_of_the_fan_terms():
    # dI/du = F5(u) sin^2(u + 2 phi) / sin^4 u, and the same with G5: the
    # fan's primitives of sin^5 u and sin^4 u cos u, carried by the corner
    # substitution below
    i_f, i_g = primitives()
    f5 = -ka + sp.Rational(2, 3) * ka**3 - ka**5 / 5
    g5 = sg**5 / 5
    assert vanishes(d_du(i_f) - f5 * MU**2 / sg**4)
    assert vanishes(d_du(i_g) - g5 * MU**2 / sg**4)


def test_primitives_are_those_of_the_forces_docstring():
    i_f, i_g = primitives()
    docstring_f = (
        8 * S**2
        + sg**2 * (24 * C**2 - 12 * S**2)
        + 3 * sg**4 * (S**2 - 4 * C**2)
        + 3 * sg**6 * (S**2 - C**2)
        + 6 * C * S * sg * ka**3 * (5 - ka**2)
    ) / (45 * sg**3)
    docstring_g = (C**2 * ka * (ka**2 - 3) + 2 * C * S * sg**3 - S**2 * ka**3) / 15
    assert vanishes(i_f - docstring_f)
    assert vanishes(i_g - docstring_g)


def test_far_corner_terms_are_the_primitives_over_w_cubed():
    # ray B's call, with t = sigma w, gives I_F / w^3 and I_G / w^3
    i_f, i_g = primitives()
    b_f, b_g = exact(_ray(sg, ka, MU, sg * w, w, C, S))
    assert vanishes(b_f - i_f / w**3)
    assert vanishes(b_g - i_g / w**3)


def test_ray_m_primitives_have_closed_forms():
    m_f, m_g = exact(_ray(c, s, c, c, 1, C, S))
    assert vanishes(m_f - M_F)
    assert vanishes(m_g - M_G)
    # 1/5 and 0 for the paper's parallel mirrors
    assert (M_F.subs({c: 1, s: 0}), M_G.subs({c: 1, s: 0})) == (sp.Rational(1, 5), 0)


@pytest.mark.parametrize("corner", ["near", "far"])
def test_corner_substitution(corner):
    # the ray from the upper-wing point r to the lower-wing point t (t = 0
    # is the near corner M3, t = R the far corner M2) has angle u when
    # r = (t sin u - a cos(u + phi)) / sin(u + 2 phi); there
    # s(r) = a_t c sin u / sin(u + 2 phi) with a_t = a + 2 t sin phi
    # (a w at the far corner), and s^-4 dr = (a_t c)^-3 sin^2(u + 2 phi)
    # sin^-4 u du
    a, t = sp.symbols("a t", positive=True)
    if corner == "near":
        t = sp.Integer(0)
    r = (t * sg - a * (c * ka - s * sg)) / MU
    g = a + 2 * r * s
    sigma, x = c * g, (t - r) + s * g
    a_t = a + 2 * t * s
    assert vanishes(sigma * ka - x * sg)
    assert vanishes(sigma - a_t * c * sg / MU)
    assert vanishes(d_du(r) / sigma**4 - MU**2 / (a_t * c) ** 3 / sg**4)
    # geometry._ray at that r, in floats, has angle u and sine s(r)
    for a_f, rho, phi, u in ((1.0, 4.0, 0.0873, 0.6), (1e-7, 40.0, 0.5, 1.2), (2.0, 0.3, 0.78, 0.2)):
        t_f = 0.0 if corner == "near" else rho * a_f
        cf, sf = math.cos(phi), math.sin(phi)
        mu = math.sin(u + 2.0 * phi)
        r_f = (t_f * math.sin(u) - a_f * math.cos(u + phi)) / mu
        sigma_f, x_f, _ = _corner_ray(a_f, cf, sf, r_f, t_f)
        assert math.atan2(sigma_f, x_f) == pytest.approx(u, rel=1e-13)
        assert sigma_f == pytest.approx((a_f + 2.0 * t_f * sf) * cf * math.sin(u) / mu, rel=1e-13)


def _proved_three_ray():
    # reduced (f_x, f_z) of the three-ray form in rho, c and s, from the
    # proved primitives at rays A and B and the closed forms at ray M
    rho = sp.Symbol("rho", positive=True)
    i_f, i_g = primitives()
    w_rho = 1 + 2 * rho * s
    h = sp.sqrt((c * rho) ** 2 + (1 + rho * s) ** 2)
    ray_a = {sg: c * w_rho / h, ka: (s * w_rho - rho) / h}
    ray_b = {sg: c / h, ka: (rho + s) / h}
    (a_f, a_g), (b_f, b_g) = ((i_f.subs(ray), i_g.subs(ray)) for ray in (ray_a, ray_b))
    d_f = (a_f - M_F) - (M_F - b_f) / w_rho**3
    d_g = (a_g - M_G) - (M_G - b_g) / w_rho**3
    forces = ((c * d_g - s * d_f) / c**3, -(c * d_f + s * d_g) / c**3)
    return sp.lambdify((rho, c, s), forces, "mpmath")


def test_three_ray_matches_the_proved_expression():
    # trapcav.forces._three_ray against the proved form at 50 digits, each
    # component within its own rounding bound
    proved = _proved_three_ray()
    for rho, phi in ((0.3, 0.7), (4.0, 0.0873), (100.0, 0.01), (1e6, 0.5)):
        c_f, s_f, c2_f, s2_f = math.cos(phi), math.sin(phi), math.cos(2.0 * phi), math.sin(2.0 * phi)
        x, z, abs_x, abs_z = _three_ray(rho, c_f, s_f, c2_f, s2_f)
        with mpmath.workdps(50):
            ref_x, ref_z = proved(mpmath.mpf(rho), mpmath.cos(phi), mpmath.sin(phi))
            assert abs(x - ref_x) <= _ROUNDING * abs_x, (rho, phi)
            assert abs(z - ref_z) <= _ROUNDING * abs_z, (rho, phi)
