"""Symbolic certificates of the closed forms' algebra: the three-ray
forces, the fan kernel and the window geometry.

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

The fan kernel ``trapcav.kernels._fan`` writes each primitive difference
as a product with the sine of the window's half-width; its identities are
proved, and ``_fan`` is compared with the 50-digit integrals of its
integrands.  ``s_factor``'s closed form and the cross and dot products of
``WingParams.window`` are proved from ``geometry._ray``'s rays, and each
is compared with the code in floats or at 50 digits.
"""

import functools
import math
import sys

import mpmath
import pytest
import sympy as sp

from test_forces import _ray
from trapcav import CavitySpec, Units, limit_angles, s_factor
from trapcav.forces import _ROUNDING, _three_ray
from trapcav.geometry import WingParams
from trapcav.geometry import _ray as _corner_ray
from trapcav.kernels import _fan

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


def test_fan_differences_are_products_with_the_half_width():
    # _fan takes u2 = u1 + width and m = u1 + h with h = width / 2
    m, h = sp.symbols("m h", real=True)
    u1, u2 = m - h, m + h
    assert sp.expand(sp.expand_trig(sp.cos(u2) - sp.cos(u1) + 2 * sp.sin(m) * sp.sin(h))) == 0
    assert sp.expand(sp.expand_trig(sp.sin(u2) - sp.sin(u1) - 2 * sp.cos(m) * sp.sin(h))) == 0


def test_fan_power_quotients():
    c1, c2 = sp.symbols("c1 c2", real=True)
    p, t = c1**2 + c2**2, c1 * c2
    assert sp.cancel((c2**3 - c1**3) / (c2 - c1) - (p + t)) == 0
    assert sp.cancel((c2**5 - c1**5) / (c2 - c1) - (p * (p + t) - t**2)) == 0


def test_fan_brackets_are_the_primitive_differences():
    # with the quotients above, dF5 and dG5 are (c2 - c1) and (s2 - s1)
    # times _fan's brackets; F5 and G5 are primitives of sin^5 u and
    # sin^4 u cos u
    f5 = -ka + sp.Rational(2, 3) * ka**3 - ka**5 / 5
    g5 = sg**5 / 5
    assert vanishes(d_du(f5) - sg**5)
    assert vanishes(d_du(g5) - sg**4 * ka)
    c1, c2, s1, s2 = sp.symbols("c1 c2 s1 s2", real=True)
    p, t = c1**2 + c2**2, c1 * c2
    bracket_f = -1 + sp.Rational(2, 3) * (p + t) - sp.Rational(1, 5) * (p * (p + t) - t**2)
    d_f = f5.subs(ka, c2) - f5.subs(ka, c1)
    assert sp.expand(d_f - (c2 - c1) * bracket_f) == 0
    p, t = s1**2 + s2**2, s1 * s2
    d_g = g5.subs(sg, s2) - g5.subs(sg, s1)
    assert sp.expand(d_g - sp.Rational(1, 5) * (s2 - s1) * (p * (p + t) - t**2)) == 0


def _fan_bound(u1, width, cphi, sphi):
    # 8 eps times the magnitudes of _fan's terms, as forces._ROUNDING
    # bounds _three_ray.  Rounding m and u2 before their sine and cosine
    # moves those by up to |m| eps and |u2| eps, which moves the brackets
    # by at most 4 |u2| eps (cosines) and 10 |u2| eps (sines)
    h = 0.5 * width
    u2, m = u1 + width, u1 + h
    c1, c2, s1, s2 = math.cos(u1), math.cos(u2), math.sin(u1), math.sin(u2)
    sin_m, cos_m, sh = abs(math.sin(m)), abs(math.cos(m)), abs(math.sin(h))
    p, t = c1 * c1 + c2 * c2, abs(c1 * c2)
    bracket_f = 1.0 + (2.0 / 3.0) * (p + t) + 0.2 * (p * (p + t) + t * t)
    mag_f = 2.0 * sh * ((sin_m + m) * bracket_f + 4.0 * u2 * sin_m)
    p, t = s1 * s1 + s2 * s2, abs(s1 * s2)
    mag_g = 0.4 * sh * ((cos_m + m) * (p * (p + t) + t * t) + 10.0 * u2 * cos_m)
    rounding = 8.0 * sys.float_info.epsilon
    return rounding * (cphi * mag_g + sphi * mag_f), rounding * (cphi * mag_f + sphi * mag_g)


@pytest.mark.parametrize(
    "u1, width, phi",
    [(0.3, 1.2, 0.1), (1.0, 1e-9, 0.5), (0.05, 2.9, 0.0), (2.0, 0.7, 0.78), (1e-4, 1.6, 0.3)],
)
def test_fan_matches_the_integrals_of_its_integrands(u1, width, phi):
    # (x, z) integrate sin^4 u cos(u + phi) and sin^4 u sin(u + phi) over
    # [u1, u1 + width]; the reference takes the same float cos phi and sin
    # phi, at 50 digits
    cphi, sphi = math.cos(phi), math.sin(phi)
    x, z = _fan(u1, width, cphi, sphi)
    bound_x, bound_z = _fan_bound(u1, width, cphi, sphi)
    with mpmath.workdps(50):
        lo = mpmath.mpf(u1)
        hi, c_m, s_m = lo + width, mpmath.mpf(cphi), mpmath.mpf(sphi)
        sin, cos = mpmath.sin, mpmath.cos
        ref_x = mpmath.quad(lambda u: sin(u) ** 4 * (c_m * cos(u) - s_m * sin(u)), [lo, hi])
        ref_z = mpmath.quad(lambda u: sin(u) ** 4 * (c_m * sin(u) + s_m * cos(u)), [lo, hi])
        assert abs(x - ref_x) <= bound_x
        assert abs(z - ref_z) <= bound_z


A, R_W, R_P = sp.symbols("a R r", positive=True)
# geometry._ray from the upper-wing point r to the lower-wing point t, in
# the unit of a: sigma = c (a + 2 r s) does not depend on t, so the rays
# to the near (t = 0) and the far (t = R) corner share it
SIGMA = c * (A + 2 * R_P * s)
X_NEAR, X_FAR = ((t - R_P) + s * (A + 2 * R_P * s) for t in (0, R_W))


def test_corner_rays_are_unit_after_dividing_by_h():
    # h^2 = sigma^2 + x^2, so sigma / h and x / h are the sine and cosine
    # of one angle
    for t, x in ((0, X_NEAR), (R_W, X_FAR)):
        h2 = (c * (R_P - t)) ** 2 + (A + (R_P + t) * s) ** 2
        assert vanishes(SIGMA**2 + x**2 - h2)


def test_s_factor_closed_form():
    # theta2 = 2 phi + u, where sin u = sigma / h and cos u = x / h of the
    # near-corner ray, so sin(2 phi - theta2) = -sin u and
    # sin(phi - theta2) = -(s cos u + c sin u); h cancels from the ratio
    h = sp.Symbol("h", positive=True)
    sin_2phi_theta2 = -SIGMA / h
    sin_phi_theta2 = -(s * X_NEAR + c * SIGMA) / h
    assert vanishes(c * (A + 2 * R_P * s) - sin_2phi_theta2 * (A + R_P * s) / sin_phi_theta2)
    # in floats, s_factor against the same ratio with limit_angles' theta2
    for a_f, rho, phi, frac in ((1.0, 4.0, 0.0873, 0.3), (1e-7, 40.0, 0.5, 1.0), (2.0, 0.3, 0.78, 0.0)):
        spec = CavitySpec(a_f, rho * a_f, 1.0, phi)
        r_f = spec.R * frac
        theta2 = limit_angles(spec, r_f).theta2
        ratio = math.sin(2.0 * phi - theta2) * (a_f + r_f * math.sin(phi)) / math.sin(phi - theta2)
        assert s_factor(spec, r_f) == pytest.approx(ratio, rel=1e-13)


def test_window_cross_and_dot_are_the_sine_and_cosine_of_the_width():
    # with u_n and u_f the near and far rays' angles from the lower wing,
    # theta2 - theta1 = u_n - u_f.  WingParams.window forms the cross
    # product (sigma / h_n) (R / h_f), which is sin(u_n - u_f) because
    # x_f - x_n = R, and the dot product (sigma / h_n) (sigma / h_f) +
    # (x_n / h_n) (x_f / h_f), which is cos(u_n - u_f) term by term because
    # both rays share sigma
    h_n, h_f = sp.symbols("h_n h_f", positive=True)
    sin_n, cos_n, sin_f, cos_f = SIGMA / h_n, X_NEAR / h_n, SIGMA / h_f, X_FAR / h_f
    assert vanishes(sin_n * (R_W / h_f) - (sin_n * cos_f - cos_n * sin_f))
    # in floats, the width against theta2 - theta1 at 50 digits, from the
    # same float cos phi and sin phi
    for rho, phi, frac in ((1e-12, 0.3, 0.5), (0.3, 0.78, 0.0), (4.0, 0.0, 1.0), (1e9, 0.01, 0.7)):
        cav = WingParams.of(CavitySpec(1.0, rho, 1.0, phi, Units.REDUCED))
        r_f = rho * frac
        width = cav.window(r_f)[1]
        with mpmath.workdps(50):
            c_m, s_m, R_m, r_m = map(mpmath.mpf, (cav.cphi, cav.sphi, cav.R, r_f))
            g = 1 + 2 * r_m * s_m
            ref = mpmath.atan2(c_m * g, -r_m + s_m * g) - mpmath.atan2(c_m * g, (R_m - r_m) + s_m * g)
            assert abs(width - ref) <= 8.0 * sys.float_info.epsilon * ref
