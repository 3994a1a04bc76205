"""Symbolic certificates of the closed forms' algebra: the package's force
form, the three-ray forces it replaced, the fan kernel, the window geometry
and the force oracle's p-form.

sympy proves each identity exactly.  Both sides are rational in
sigma = sin u, kappa = cos u, c = cos phi and s = sin phi, with
C = cos 2 phi = c^2 - s^2 and S = sin 2 phi = 2 c s, and d/du takes
sigma to kappa and kappa to -sigma.  An identity holds when the numerator
of the difference of its sides reduces to zero modulo sigma^2 + kappa^2 - 1
and c^2 + s^2 - 1.

The force oracle ``trapcav.oracle._gauss_forces`` integrates along
p = r + t.  The swap (r, t) -> (t, r) that makes its integrands one-signed,
the antiderivatives of its integral in q = r - t and their rewrite in
y = c m / hypot(c m, g) are proved with ``simplify``, and the code is
compared with ``mpmath.quad`` of the proved p-integral at 50 digits.

The package's closed form ``trapcav.forces._reduced`` is that p-integral
in the substitution u = c m / g: both halves' Jacobians, the six moments
(each an antiderivative of its integrand that vanishes at 0), the
regrouping of their sum into H + K / w^3 with positive coefficients only,
the infinite-wing limit, both bounds and the small-angle law are proved
here.  ``_reduced`` is compared with the proved moment form and with
``mpmath.quad`` of the proved p-integral at 50 digits, each component
within its own bound, so a mistyped coefficient in ``src/`` fails here.

Its phi-derivative ``trapcav.analysis._dfx_dphi``, whose root is phi*, is
proved factor by factor and as a whole to be d/dphi of the moment form
at fixed rho, and compared with that proved derivative at 50 digits.

The three-ray form is an independent derivation of the same forces, by a
corner substitution in the fan angle.  The primitives proved are those of
``_ray`` in ``tests/test_forces.py``, the one-call-per-ray form whose float
literals are integers, and whose divisions by 45.0 and 15.0 come back from
``nsimplify`` as the fractions they stand for.  ``_reduced`` is compared
with the proved three-ray expression at 50 digits, and
``trapcav.geometry._ray`` with the proved corner substitution in floats.
The one step that the closed form and the oracle share, the swap of r and
t, is thus checked against a derivation without it.

The fan kernel ``trapcav.kernels.fan_integrals`` writes each primitive
difference as a product with the sine of the window's half-width; its
identities are proved, and ``fan_integrals`` is compared with the 50-digit
integrals of its integrands.  ``s_factor``'s closed form and the cross and dot products of
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
from trapcav.analysis import _dfx_dphi
from trapcav.forces import _ROUNDING, _reduced
from trapcav.geometry import WingParams
from trapcav.geometry import _ray as _corner_ray
from trapcav.kernels import fan_integrals

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
    # the closed form of trapcav.forces._reduced, at scale 1 and so in
    # units of the gap, against the proved three-ray form at 50 digits,
    # each component within its own bound: the three-ray derivation does
    # not swap r and t, so it checks the one step that the closed form and
    # the force oracle share
    proved = _proved_three_ray()
    for rho, phi in ((0.3, 0.7), (4.0, 0.0873), (100.0, 0.01), (1e6, 0.5)):
        x, z = _reduced(rho, rho, phi, 1.0)
        with mpmath.workdps(50):
            ref_x, ref_z = proved(mpmath.mpf(rho), mpmath.cos(phi), mpmath.sin(phi))
            assert abs(x - ref_x) <= _ROUNDING * abs(x), (rho, phi)
            assert abs(z - ref_z) <= _ROUNDING * abs(z), (rho, phi)


def test_fan_differences_are_products_with_the_half_width():
    # fan_integrals takes u2 = u1 + width and m = u1 + h with h = width / 2
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
    # times fan_integrals' brackets; F5 and G5 are primitives of sin^5 u and
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
    # 8 eps times the magnitudes of fan_integrals' terms, as forces._ROUNDING
    # bounds the three-ray form.  Rounding m and u2 before their sine and
    # cosine moves those by up to |m| eps and |u2| eps, which moves the
    # brackets by at most 4 |u2| eps (cosines) and 10 |u2| eps (sines)
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
    x, z = fan_integrals(u1, width, cphi, sphi)
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


# the force oracle's p-form, trapcav.oracle._gauss_forces, in units of the
# gap: wing points P(r) = (c r, s r) and Q(t) = (c t, -1 - s t), with
# s(r) = c (1 + 2 r s)
r_w, t_w, X, g_p, y_p = sp.symbols("r t X g y", positive=True)
G_SUM = 1 + s * (r_w + t_w)
D2 = c**2 * (r_w - t_w) ** 2 + G_SUM**2
# the antiderivatives in X = c q of X^2 / |d|^7 and g^2 / |d|^7
A_X = X**3 * (2 * X**2 + 5 * g_p**2) / (15 * g_p**4 * (X**2 + g_p**2) ** sp.Rational(5, 2))
B_Z = X * (15 * g_p**4 + 20 * g_p**2 * X**2 + 8 * X**4) / (15 * g_p**4 * (X**2 + g_p**2) ** sp.Rational(5, 2))


def _swap_average(expr):
    return (expr + expr.subs({r_w: t_w, t_w: r_w}, simultaneous=True)) / 2


def test_the_swap_makes_each_force_integrand_one_signed():
    # s(r) (d_x, d_z) / |d|^7 with d = Q(t) - P(r), averaged with its
    # (r, t) -> (t, r) swap, is (-s c^2 (r - t)^2, -c g^2) / |d|^7; the
    # square [0, rho]^2 is its own swap, so the integrals are unchanged
    d_x, d_z = c * t_w - c * r_w, -1 - s * t_w - s * r_w
    assert sp.expand(d_x**2 + d_z**2 - D2) == 0
    s_r = c * (1 + 2 * r_w * s)
    d7 = D2 ** sp.Rational(7, 2)
    assert sp.simplify(_swap_average(s_r * d_x / d7) + s * c**2 * (r_w - t_w) ** 2 / d7) == 0
    assert sp.simplify(_swap_average(s_r * d_z / d7) + c * G_SUM**2 / d7) == 0


def test_q_antiderivatives_of_both_force_integrands():
    # with q = r - t, X = c q and g = 1 + s p: |d|^2 = X^2 + g^2, and both
    # primitives vanish at X = 0, the middle of the q range
    d7 = (X**2 + g_p**2) ** sp.Rational(7, 2)
    assert sp.simplify(sp.diff(A_X, X) - X**2 / d7) == 0
    assert sp.simplify(sp.diff(B_Z, X) - g_p**2 / d7) == 0
    assert A_X.subs(X, 0) == 0 and B_Z.subs(X, 0) == 0


def test_the_primitives_in_y_are_the_oracle_integrands():
    # at y = X / hypot(X, g) the primitives are y^3 (5 - 3 y^2) / (15 g^4)
    # and y (15 - 10 y^2 + 3 y^4) / (15 g^4), the terms _gauss_forces sums
    y_of_x = X / sp.sqrt(X**2 + g_p**2)
    in_y_x = y_p**3 * (5 - 3 * y_p**2) / (15 * g_p**4)
    in_y_z = y_p * (15 - 10 * y_p**2 + 3 * y_p**4) / (15 * g_p**4)
    assert sp.simplify(in_y_x.subs(y_p, y_of_x) - A_X) == 0
    assert sp.simplify(in_y_z.subs(y_p, y_of_x) - B_Z) == 0


def _proved_p_integrals(rho, phi):
    # the proved p-integral at 50 digits: dr dt = dp dq / 2 over the square
    # |q| <= m = min(p, 2 rho - p), and the q-integral of an even integrand
    # is twice that over [0, m], so f_x = -(s / c) int A(c m) dp and
    # f_z = -int g^2 B(c m) dp
    a_x, b_z = (sp.lambdify((X, g_p), e, "mpmath") for e in (A_X, B_Z))
    c_m, s_m, rho = mpmath.cos(phi), mpmath.sin(phi), mpmath.mpf(rho)

    def at(p, primitive):
        return primitive(c_m * min(p, 2 * rho - p), 1 + s_m * p)

    knots = sorted({mpmath.mpf(0), min(mpmath.mpf(1), rho), rho, max(rho, 2 * rho - 1), 2 * rho})
    f_x = -(s_m / c_m) * mpmath.quad(lambda p: at(p, a_x), knots)
    f_z = -mpmath.quad(lambda p: at(p, b_z), knots)
    return f_x, f_z


def test_gauss_forces_match_the_proved_p_integral():
    # a mistyped coefficient of the oracle's integrands fails here: each
    # component within 1e-13 of its own size
    from trapcav.oracle import _gauss_forces

    for rho, phi in ((0.3, 0.5), (4.0, 0.0873), (40.0, 0.78)):
        f_x, f_z = _gauss_forces(CavitySpec(1.0, rho, 1.0, phi, Units.REDUCED))
        with mpmath.workdps(50):
            ref_x, ref_z = _proved_p_integrals(rho, phi)
            assert abs(f_x - ref_x) <= 1e-13 * abs(ref_x), (rho, phi)
            assert abs(f_z - ref_z) <= 1e-13 * abs(ref_z), (rho, phi)


# the closed form of trapcav.forces: u = c m / g on each half of the
# p-integral, U = c rho / (1 + s rho), Q = hypot(1, U), q = Q - 1 and
# delta = c - s U; F_x and F_z are the p-integrands' numerators in y
u_s, U_s, rho_s, delta_s = sp.symbols("u U rho delta", positive=True)
Q_U = sp.sqrt(1 + U_s**2)
Q_S, q_s = sp.symbols("Q q", positive=True)
F_X = y_p**3 * (5 - 3 * y_p**2)
F_Z = y_p * (15 - 10 * y_p**2 + 3 * y_p**4)
# the six moments A_k = integral_0^U u^k F(u / hypot(1, u)) du, in Q and q
MOMENTS = {
    "x": (
        q_s**2 * (2 * Q_S**2 + 2 * Q_S + 1) / Q_S**3,
        U_s**5 / Q_S**3,
        q_s**3 * (2 * Q_S**3 + 6 * Q_S**2 + 9 * Q_S + 3) / (3 * Q_S**3),
    ),
    "z": (
        q_s * (8 * Q_S**3 + 5 * Q_S**2 + Q_S + 1) / Q_S**3,
        U_s**3 * (4 * Q_S**2 + 1) / Q_S**3,
        q_s**2 * (8 * Q_S**4 + 16 * Q_S**3 + 12 * Q_S**2 + 6 * Q_S + 3) / (3 * Q_S**3),
    ),
}
# H = c^2 A0 - 2 c s A1 + s^2 A2 regrouped with c = s U + delta and
# U^2 = q (Q + 1): positive coefficients only
H_FORMS = {
    "x": sp.Rational(2, 3) * s**2 * q_s**3
    + 2 * s * delta_s * U_s * q_s**2 / Q_S
    + delta_s**2 * q_s**2 * (2 * Q_S**2 + 2 * Q_S + 1) / Q_S**3,
    "z": s**2 * q_s**2 * (8 * Q_S + 7) / 3
    + 2 * s * delta_s * U_s * q_s * (4 * Q_S + 1) / Q_S
    + delta_s**2 * q_s * (8 * Q_S**3 + 5 * Q_S**2 + Q_S + 1) / Q_S**3,
}


def _in_U(expr):
    return expr.subs({Q_S: Q_U, q_s: Q_U - 1})


@pytest.mark.parametrize("half", ["first", "second"])
def test_u_substitution_maps_each_half_of_the_p_integral(half):
    # first half m = p, g = 1 + s p; second half m = 2 rho - p, g = w - s m
    # with w = 1 + 2 s rho.  u = c m / g gives y = c m / hypot(c m, g) =
    # u / hypot(1, u), dm / g^4 = (c -+ s u)^2 du / (c^3 W^3) with W = 1 or
    # w, and m = rho at u = U on both halves, m = 0 at u = 0
    W = 1 if half == "first" else 1 + 2 * s * rho_s
    sign = -1 if half == "first" else 1
    m = W * u_s / (c + sign * s * u_s)
    g = W - sign * s * m
    assert sp.simplify(c * m / g - u_s) == 0
    assert sp.simplify(sp.diff(m, u_s) / g**4 - (c + sign * s * u_s) ** 2 / (c**3 * W**3)) == 0
    assert sp.simplify(m.subs(u_s, c * rho_s / (1 + s * rho_s)) - rho_s) == 0 and m.subs(u_s, 0) == 0
    assert sp.simplify((u_s / sp.sqrt(1 + u_s**2)) ** 2 - (c * m) ** 2 / ((c * m) ** 2 + g**2)) == 0


def test_the_halves_sum_to_the_moment_form():
    # (c - s u)^2 + (c + s u)^2 / w^3 = (1 + w^-3) (c^2 + s^2 u^2)
    # - 2 c s (1 - w^-3) u, so c^3 I = (1 + w^-3) (c^2 A0 + s^2 A2)
    # - 2 c s (1 - w^-3) A1
    lhs = (c - s * u_s) ** 2 + (c + s * u_s) ** 2 / w**3
    rhs = (1 + w**-3) * (c**2 + s**2 * u_s**2) - 2 * c * s * (1 - w**-3) * u_s
    assert sp.expand(lhs - rhs) == 0


@pytest.mark.parametrize("component", ["x", "z"])
def test_each_moment_is_the_antiderivative_of_its_integrand(component):
    F = F_X if component == "x" else F_Z
    for k, moment in enumerate(MOMENTS[component]):
        a_k = _in_U(moment)
        integrand = U_s**k * F.subs(y_p, U_s / Q_U)
        assert sp.simplify(sp.diff(a_k, U_s) - integrand) == 0, k
        assert a_k.subs(U_s, 0) == 0, k


@pytest.mark.parametrize("component", ["x", "z"])
def test_h_has_positive_coefficients_only(component):
    a0, a1, a2 = (_in_U(a) for a in MOMENTS[component])
    h = c**2 * a0 - 2 * c * s * a1 + s**2 * a2
    assert sp.simplify(sp.expand((h - _in_U(H_FORMS[component])).subs(c, s * U_s + delta_s))) == 0


def test_infinite_wing_limit_and_bounds():
    # as rho -> infinity, delta -> 0 and U -> c / s, so Q = 1 / s and
    # H_x -> (2/3) (1 - s)^3 / s; w^-3 K -> 0
    limit = H_FORMS["x"].subs({delta_s: 0, Q_S: 1 / s, q_s: 1 / s - 1})
    assert sp.simplify(limit - sp.Rational(2, 3) * (1 - s) ** 3 / s) == 0
    assert vanishes((c / s) ** 2 + 1 - 1 / s**2)
    # F_x < 2 and F_z < 8 on [0, 1): 2 - F_x and 8 - F_z are (1 - y)^2 and
    # (1 - y)^3 times polynomials with positive coefficients
    assert sp.expand(2 - F_X - (1 - y_p) ** 2 * (3 * y_p**3 + 6 * y_p**2 + 4 * y_p + 2)) == 0
    assert sp.expand(8 - F_Z - (1 - y_p) ** 3 * (3 * y_p**2 + 9 * y_p + 8)) == 0
    # integral_0^(2 rho) g^-4 dp = (1 - w^-3) / (3 s)
    p = sp.Symbol("p", positive=True)
    g_int = sp.integrate((1 + s * p) ** -4, (p, 0, 2 * rho_s))
    assert sp.simplify(g_int - (1 - (1 + 2 * s * rho_s) ** -3) / (3 * s)) == 0


def test_small_angle_law():
    # f_x / s = L (1 + k1 s + O(s^2)) at fixed rho, with L = -(2/15) A0x(rho)
    # = -(2/15) (2Q - 2 - 1/Q + 1/Q^3) and k1 = -rho (8Q^4 + 10Q^3 + 8Q^2
    # + 6Q + 3) / (Q^2 (2Q^2 + 2Q + 1)), Q = hypot(1, rho)
    c_s = sp.sqrt(1 - s**2)
    U = c_s * rho_s / (1 + s * rho_s)
    a0, a1, a2 = (e.subs(U_s, U) for e in (_in_U(a) for a in MOMENTS["x"]))
    w_s = 1 + 2 * s * rho_s
    f_x_over_s = -((1 + w_s**-3) * (c_s**2 * a0 + s**2 * a2) - 2 * c_s * s * (1 - w_s**-3) * a1) / (15 * c_s**4)
    # f_x / s is smooth at s = 0, so L and L k1 are its value and slope there
    Q = sp.sqrt(1 + rho_s**2)
    law = -sp.Rational(2, 15) * (2 * Q - 2 - 1 / Q + 1 / Q**3)
    k1 = -rho_s * (8 * Q**4 + 10 * Q**3 + 8 * Q**2 + 6 * Q + 3) / (Q**2 * (2 * Q**2 + 2 * Q + 1))
    assert sp.simplify(f_x_over_s.subs(s, 0) - law) == 0
    assert sp.simplify(sp.diff(f_x_over_s, s).subs(s, 0) - law * k1) == 0


def _proved_moment_form():
    # reduced (f_x, f_z) from the proved moments, as functions of rho, c, s
    v = (1 + 2 * s * rho_s) ** -3
    U = c * rho_s / (1 + s * rho_s)
    forms = []
    for component in ("x", "z"):
        a0, a1, a2 = (_in_U(a).subs(U_s, U) for a in MOMENTS[component])
        forms.append((1 + v) * (c**2 * a0 + s**2 * a2) - 2 * c * s * (1 - v) * a1)
    return sp.lambdify((rho_s, c, s), (-(s / c) * forms[0] / (15 * c**3), -forms[1] / (15 * c**3)), "mpmath")


def test_closed_form_matches_the_proved_moments():
    # trapcav.forces._reduced against the proved moment form at 50 digits,
    # from micro wings to 1e300 gaps, each component within its own bound
    proved = _proved_moment_form()
    for rho in (1e-9, 1e-3, 0.3, 4.0, 1e3, 1e12, 1e300):
        for phi in (0.0, 1e-8, 0.1, 0.5, 0.78):
            x, z = _reduced(rho, rho, phi, 1.0)
            with mpmath.workdps(50):
                ref_x, ref_z = proved(mpmath.mpf(rho), mpmath.cos(phi), mpmath.sin(phi))
                assert abs(x - ref_x) <= _ROUNDING * abs(x), (rho, phi)
                assert abs(z - ref_z) <= _ROUNDING * abs(z), (rho, phi)


# d/dphi at fixed rho.  With rho = U / (c - s U) every quantity of the
# closed form is rational in c, s, U and Q = hypot(1, U); d/dphi takes s to
# c, c to -s, U to U' = -U (c U + s) / c and Q to U U' / Q.  An identity
# holds when the numerator of the difference of its sides reduces to zero
# modulo c^2 + s^2 - 1 and Q^2 - U^2 - 1
RHO_IN_U = U_s / (c - s * U_s)
D_U = -U_s * (c * U_s + s) / c


def d_phi(expr):
    return c * sp.diff(expr, s) - s * sp.diff(expr, c) + D_U * (sp.diff(expr, U_s) + U_s / Q_S * sp.diff(expr, Q_S))


def vanishes_in_q(expr) -> bool:
    numerator = sp.fraction(sp.together(expr))[0]
    return sp.reduced(sp.expand(numerator), [c**2 + s**2 - 1, Q_S**2 - U_s**2 - 1], c, Q_S, s, U_s)[1] == 0


def _moment_f_x():
    # the reduced f_x of the proved moment form
    v = (1 + 2 * s * RHO_IN_U) ** -3
    a0, a1, a2 = (a.subs(q_s, Q_S - 1) for a in MOMENTS["x"])
    return -s * ((1 + v) * (c**2 * a0 + s**2 * a2) - 2 * c * s * (1 - v) * a1) / (15 * c**4)


def _dfx_dphi_lines():
    # trapcav.analysis._dfx_dphi line for line: each factor with the
    # derivative that the code writes for it, x, and the result
    rho, q = RHO_IN_U, Q_S - 1
    delta = c / (1 + s * rho)
    r, y = 1 / Q_S, U_s / Q_S
    P, Z, S = s * q, q / Q_S, s * U_s
    w = 1 + 2 * s * rho
    v = w**-3
    B, E, g = 2 + r * (2 + r), delta**2 + v * c**2, 2 + r * (6 + r * (9 + 3 * r))
    inner, y3 = B * E + 2 * delta * S, y**3
    x = P * (Z * inner + P**2 * (2 + v * g) / 3) + 2 * v * c * y3 * S**2
    k = (y + s * delta * r) / c**2
    d_delta, d_S, d_r = -delta * (s / c + U_s), delta * U_s - s * S / c, y * y * k
    d_P, d_v = q * (c * delta * (1 + r) - s**2 - r) / c, -6 * c * (rho / w) * v
    d_E = 2 * delta * d_delta + d_v * c**2 - 2 * v * c * s
    d_G = d_v * g + v * d_r * (6 + r * (18 + 9 * r))
    d_x = (
        d_P * (Z * inner + P**2 * (2 + v * g))
        + P * (Z * (2 * d_r * (1 + r) * E + B * d_E + 2 * (d_delta * S + delta * d_S)) - d_r * inner)
        + P**3 * d_G / 3
        + 2 * y3 * S * ((c * d_v - s * v) * S + v * c * (2 * d_S - 3 * S * r * k))
    )
    factors = {
        "delta": (delta, d_delta),
        "S": (S, d_S),
        "r": (r, d_r),
        "y": (y, -y * r * k),
        "P": (P, d_P),
        "v": (v, d_v),
        "E": (E, d_E),
        "G": (2 + v * g, d_G),
    }
    return factors, x, -(d_x + 4 * s * x / c) / (15 * c**4)


def test_dfx_dphi_is_the_derivative_of_the_moment_form():
    # U = c rho / (1 + s rho) gives rho = U / (c - s U) and, at fixed rho,
    # U' = -U (c U + s) / c
    U_rho = c * rho_s / (1 + s * rho_s)
    assert sp.simplify(U_rho.subs(rho_s, RHO_IN_U) - U_s) == 0
    assert vanishes_in_q((c * sp.diff(U_rho, s) - s * sp.diff(U_rho, c)).subs(rho_s, RHO_IN_U) - D_U)
    factors, x, slope = _dfx_dphi_lines()
    for name, (factor, derivative) in factors.items():
        assert vanishes_in_q(d_phi(factor) - derivative), name
    f_x = _moment_f_x()
    # x is _reduced's, f_x = -x / (15 c^4), and the result is d f_x / d phi
    assert vanishes_in_q(x + 15 * c**4 * f_x)
    assert vanishes_in_q(slope - d_phi(f_x))


def test_dfx_dphi_matches_the_proved_derivative():
    # trapcav.analysis._dfx_dphi against d/dphi of the proved moment form at
    # 50 digits, away from the root, within 32 eps of its size
    proved = sp.lambdify((c, s, U_s, Q_S), d_phi(_moment_f_x()), "mpmath")
    for rho in (0.3, 4.0, 1e6):
        for phi in (1e-8, 1e-3, 0.1, 0.5, 0.78):
            slope = _dfx_dphi(rho, phi)
            with mpmath.workdps(50):
                cos, sin = mpmath.cos(phi), mpmath.sin(phi)
                U = cos * rho / (1 + sin * rho)
                ref = proved(cos, sin, U, mpmath.sqrt(1 + U * U))
                assert abs(slope - ref) <= _ROUNDING * abs(ref), (rho, phi)


def test_p_rule_matches_the_proved_p_integral():
    # the closed form where the short-wing p-rule once summed the same
    # integral (the old limits of its 4-, 6- and 8-node orders) and over
    # R/a 1e-9..1e6, against mpmath.quad of the proved p-integral at 50
    # digits, each component within its own bound, 32 eps of its size
    points = [(rho, phi) for rho in (0.004, 0.05, 0.25) for phi in (1e-3, 0.3, 0.78)]
    points += [(rho, phi) for rho in (1e-9, 1e-3, 1.0, 1e3, 1e6) for phi in (1e-3, 0.78)]
    for rho, phi in points:
        f_x, f_z = _reduced(rho, rho, phi, 1.0)
        with mpmath.workdps(50):
            ref_x, ref_z = _proved_p_integrals(rho, phi)
            assert abs(f_x - ref_x) <= _ROUNDING * abs(f_x), (rho, phi)
            assert abs(f_z - ref_z) <= _ROUNDING * abs(f_z), (rho, phi)
