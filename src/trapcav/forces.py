"""Total forces on a wing and sampled pressure profiles.

The force per cavity width L is the pressure integrated along the wing,

    F_z = L * integral_0^R p_z(r) dr      (compression, < 0)
    F_x = L * integral_0^R p_x(r) dr      (expulsion; < 0 for phi > 0)

and both integrals have closed forms.  Every force is computed in units of
the gap, from rho = R/a and phi alone, and K L / a^3 is applied once.

Three-ray form (rho > 1/4).  p(r) is the fan integral of the primitives F5
and G5 of :mod:`~trapcav.kernels` between the limit angles, over s(r)^4.
Along the wing each limit angle sweeps the rays from one fixed corner of
the lower wing, so the wing integral can be taken in that ray's own angle
u instead of r (u = theta - 2 phi): for the near corner M3,
s(r) = a c sin u / sin(u + 2 phi) and dr = a c du / sin^2(u + 2 phi)
(c = cos phi), so s^-4 dr = (a c)^-3 sin^2(u + 2 phi) sin^-4 u du; for the
far corner M2 the same holds with a replaced by a w, w = 1 + 2 rho sin phi.  Each corner then
contributes (a c)^-3 times the difference of a primitive I between the
angles of its end rays, and the primitives are rational in sigma = sin u
and kappa = cos u, with C = cos 2 phi and S = sin 2 phi:

    45 sigma^3 I_F = 8 S^2 + sigma^2 (24 C^2 - 12 S^2)
                     + 3 sigma^4 (S^2 - 4 C^2) + 3 sigma^6 (S^2 - C^2)
                     + 6 C S sigma kappa^3 (5 - kappa^2)
          15 I_G = C^2 kappa (kappa^2 - 3) + 2 C S sigma^3 - S^2 kappa^3

The end rays are A = M3 seen from the wing tip, M = either corner seen
from its own wing end (u = pi/2 - phi for both), and B = M2 seen from the
apex.  At M, sigma = c and kappa = s = sin phi, and the primitives reduce
to functions of phi alone,

    I_F(M) = (9 s^4 - 10 s^2 + 9) / (45 c)      I_G(M) = s (1 - 3 s^2) / 15,

which are 1/5 and 0 for parallel mirrors.  A and B are the corner rays
of :mod:`~trapcav.geometry` at (r, t) = (rho, 0) and (0, rho) in gap
units: with h = hypot(c rho, 1 + rho sin phi), both of length h,

    (sigma_A, kappa_A) = (c w, w sin phi - rho) / h
    (sigma_B, kappa_B) = (c, rho + sin phi) / h.

With I_x = c I_G - sin(phi) I_F and I_z = c I_F + sin(phi) I_G,

    f_x a^3 / (K L) = c^-3 [(I_x(A) - I_x(M)) - (I_x(M) - I_x(B)) / w^3]

and f_z is the same in I_z with a leading minus sign.  There is no log and
no division by sin 2 phi, so phi = 0 is an ordinary point.  The B terms
divide by (sigma_B w)^3, never by sigma_B^3 alone, which underflows on
wings longer than about 1e102 gaps.

p-rule (rho <= 1/4).  On a short wing the three rays nearly coincide
and their differences lose digits as (a / R)^2.  There the force is the
angle-free double integral over both wings,

    f = K L integral_0^R integral_0^R s(r) (d_x, d_z) / |d|^7 dt dr,

with d = Q(t) - P(r), P = r (cos phi, sin phi) on the upper wing and
Q = (t cos phi, -a - t sin phi) on the lower one.  Averaged with its swap
(r, t) -> (t, r) the integrand has one sign, and in p = r + t its integral
in q = r - t is elementary, which leaves

    f_x a^3 / (K L) = -(s / c) integral_0^(2 rho) y^3 (5 - 3 y^2) / (15 g^4) dp
    f_z a^3 / (K L) = -integral_0^(2 rho) y (15 - 10 y^2 + 3 y^4) / (15 g^4) dp

with y = c m / hypot(c m, g), m = min(p, 2 rho - p) and g = 1 + s p
(s = sin phi; the derivation is in :mod:`~trapcav.oracle`, whose force
oracle sums the same integral on graded panels, and
``tests/test_certificates.py`` proves each step).  Each half, in m on
[0, rho], is summed with one n-point Gauss-Legendre rule.  Its truncation
error falls like (R / a)^(2n), so n grows with the wing: 4 up to R/a =
0.004, 6 up to 0.05 and 8 up to 1/4.  Every term has one sign, so f_x
keeps the digits of its own size.  Over R/a 1e-9..1/4 and phi 0..0.785
the rule is within 6.2e-16 |f_z| of 40 digits.

Both forms run on plain floats, as does :func:`pressure_profile`, which
samples the pressure kernel of :mod:`~trapcav.kernels`.  :func:`expulsion`
evaluates the same forms at many angles of one cavity and keeps only f_x,
for the phi* search of :mod:`~trapcav.analysis`.  It computes no error
bounds: the three-ray form skips their sums there.
"""

import math
import operator
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonFiniteSample
from .geometry import REL_TOL_FLOOR, CavitySpec, WingParams, pressure_prefactor, validate

if TYPE_CHECKING:
    from .kernels import PressureSample

# the reported error bound of either formula, per unit of the summed
# magnitudes of its terms: 8 eps, where a 50-digit grid over R/a
# 1e-6..1e6 and phi 0..0.78 (24 000 cavities) found at most 5.96 eps
_ROUNDING = 8.0 * sys.float_info.epsilon

# the smallest normal float: an f_z below it has lost its digits
_FLOAT_MIN = sys.float_info.min

# wings up to this many gaps long use the p-rule
_SHORT_WING = 0.25

# (longest R/a, (node, weight) pairs) of each order of the p-rule, n = 4,
# 6 and 8, shortest wings first: n-point Gauss-Legendre on [0, 1], each
# literal the correctly rounded value of the exact node or weight; the
# limits are calibrated in _p_rule
_RULES = (
    (
        0.004,
        (
            (0.06943184420297371, 0.17392742256872692),
            (0.33000947820757187, 0.32607257743127305),
            (0.6699905217924281, 0.32607257743127305),
            (0.9305681557970263, 0.17392742256872692),
        ),
    ),
    (
        0.05,
        (
            (0.03376524289842399, 0.08566224618958518),
            (0.16939530676686773, 0.1803807865240693),
            (0.38069040695840156, 0.23395696728634552),
            (0.6193095930415985, 0.23395696728634552),
            (0.8306046932331322, 0.1803807865240693),
            (0.966234757101576, 0.08566224618958518),
        ),
    ),
    (
        _SHORT_WING,
        (
            (0.019855071751231884, 0.05061426814518813),
            (0.10166676129318664, 0.11119051722668724),
            (0.2372337950418355, 0.15685332293894363),
            (0.4082826787521751, 0.181341891689181),
            (0.591717321247825, 0.181341891689181),
            (0.7627662049581645, 0.15685332293894363),
            (0.8983332387068134, 0.11119051722668724),
            (0.9801449282487681, 0.05061426814518813),
        ),
    ),
)


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

    ``err_x`` and ``err_z`` bound the rounding error of the closed forms:
    a fixed multiple of eps times the summed magnitudes of their terms,
    scaled like the forces.  ``converged`` is True when the larger bound is
    within ``rel_tol`` of the larger force component of one wing.
    """

    spec: CavitySpec
    f_x: float
    f_z: float
    err_x: float
    err_z: float
    wing_count: int = 1
    converged: bool = True


class PressureProfile(NamedTuple):
    """Pressure samples along the wing, strictly increasing in ``r``."""

    spec: CavitySpec
    samples: tuple["PressureSample", ...]


def _check_options(rel_tol: float, wing_count: int) -> None:
    if wing_count not in (1, 2):
        raise ValueError(f"wing_count must be 1 or 2, got {wing_count!r}")
    if not (REL_TOL_FLOOR <= rel_tol < math.inf):
        raise ValueError(f"rel_tol must be at least {REL_TOL_FLOOR!r} and finite, got {rel_tol!r}")


def total_forces(spec: CavitySpec, rel_tol: float = 1e-9, *, wing_count: int = 1) -> ForceResult:
    """Both force components on one wing, from the closed forms.

    Wings longer than a quarter of the gap use the three-ray form, shorter
    ones the p-rule, an n-point Gauss-Legendre sum on each half of a
    one-signed integral along p = r + t, with n = 4, 6 or 8 by wing length
    (see the module docstring); either costs a fixed number of float
    operations.  ``err_x`` and ``err_z`` are 8 eps times the summed
    magnitudes of each component's terms: the four primitive values of the
    three-ray form, each as the magnitudes of its two projections, or the
    p-rule's terms, which have one sign, so that there they are 8 eps
    |f_x| and 8 eps |f_z|.  On a 50-digit grid over R/a 1e-6..1e6 and phi
    0..0.78 the largest error seen was 0.75 of its bound, and every force
    was within 3.5e-14 |f_z| (the worst just above R/a = 1/4 near
    phi = pi/4; 3e-15 |f_z| for R/a >= 10).  ``rel_tol`` only sets ``converged``, which holds when the
    larger bound is within ``rel_tol`` of the larger component; it must be
    at least ``REL_TOL_FLOOR`` and finite.  With ``wing_count=2`` the x
    force and its bound double and the z force cancels exactly between the
    mirror-image wings.  A force that is not
    finite, or an f_z that is not a normal float (SI gaps below about
    1e-112 m, or R/a below about 1e-154), raises :class:`NonFiniteSample`.
    So do flat wings longer than about 7.5e306 gaps, although their f_z,
    about -(16/15) R/a, is a finite float: an intermediate of the
    three-ray form, about 24 R/a, overflows, and at phi = 0 f_x is NaN.
    """
    validate(spec)
    _check_options(rel_tol, wing_count)
    return _forces(spec, _scale(spec), rel_tol, wing_count)


def expulsion(base: CavitySpec, angles: list[float]) -> list[float]:
    """The signed f_x of a validated ``base`` at each of ``angles``.

    Each value has the bits of ``total_forces(base._replace(phi=phi)).f_x``
    and a failing angle raises the :class:`NonFiniteSample` that call
    would; no spec, check, error bound or :class:`ForceResult` is made
    per angle.  The caller vouches that ``base`` with each angle is a
    valid cavity.
    """
    rho, scale = base.R / base.a, _scale(base)
    return [_reduced(base.R, rho, phi, scale, bounds=False) for phi in angles]


def _scale(spec: CavitySpec) -> float:
    # K L / a^3, the scale of a wing's forces in units of the gap
    return pressure_prefactor(spec) / spec.a / spec.a / spec.a * spec.L


def _forces(spec: CavitySpec, scale: float, rel_tol: float, wing_count: int) -> ForceResult:
    # a validated spec's forces at its _scale, which a sweep computes once
    a, R, _, phi, _ = spec
    f_x, f_z, abs_x, abs_z = _reduced(R, R / a, phi, scale, bounds=True)
    err_x, err_z = _ROUNDING * abs_x * scale, _ROUNDING * abs_z * scale
    # max(err_x, err_z) <= rel_tol * max(|f_x|, |f_z|) without builtin
    # calls: it fails only when both scaled components lie inside
    # (-big, big).  The bounds are sums of magnitudes, never NaN
    big = err_z if err_z > err_x else err_x
    converged = not (-big < rel_tol * f_x < big and -big < rel_tol * f_z < big)
    if wing_count == 2:
        f_x, err_x = 2.0 * f_x, 2.0 * err_x
        f_z = err_z = 0.0
    # as ForceResult(...), without the NamedTuple's Python-level __new__
    return tuple.__new__(ForceResult, (spec, f_x, f_z, err_x, err_z, wing_count, converged))


def _reduced(R: float, rho: float, phi: float, scale: float, bounds: bool):
    # (f_x, f_z) on a wing R long and rho gaps long at half-angle phi: the
    # reduced forces, by the formula for its length, times scale; and, with
    # bounds, the summed magnitudes of each reduced force's terms.  Without
    # bounds only f_x is returned.  A force that is no finite float, or an
    # f_z that is no normal one, raises NonFiniteSample either way.
    #
    # The three-ray form: rays A and B give I_F / w^3 and I_G / w^3 from
    # their sine sg, cosine ka, mu = C sg + S ka (the sine of the ray angle
    # plus 2 phi) and t = sg w; w = 1 for ray A.  45 sg^3 I_F is written
    # with mu, which is small where its own terms would cancel, and as a
    # polynomial in 1/t, so that neither sg^3 nor w^3 divides alone.  Ray
    # A has sine sg and cosine ka, B has sb and kb.  A and B are the rays
    # of geometry._ray at (r, t) = (rho, 0) and (0, rho) in gap units,
    # written out: (sigma, x) = (c w, s w - rho) and (c, rho + s), over one
    # length h that both have bit for bit.  So sg is t for A and B and mu
    # for B, and sb = c / h is mu for A.  Ray M, of sine c and cosine s,
    # takes the closed forms I_F = (9 s^4 - 10 s^2 + 9) / (45 c) and
    # I_G = s (1 - 3 s^2) / 15 instead.  The term 8 S^2 / sg, of order rho,
    # is 8 S (S / sg): S^2 alone underflows once phi is below about 1e-154
    c, s = math.cos(phi), math.sin(phi)
    if rho > _SHORT_WING:
        C, S = math.cos(2.0 * phi), math.sin(2.0 * phi)
        cc, ss, cs = C * C, S * S, C * S
        s8, ss12, cs2, cs6 = 8.0 * S, 12.0 * ss, 2.0 * cs, 6.0 * cs
        d4, d1, c24 = ss - 4.0 * cc, ss - cc, 24.0 * C
        w = 1.0 + rho * (2.0 * s)
        w2 = w * w
        w3 = w2 * w
        h = math.hypot(c * rho, 1.0 + rho * s)
        sg, ka, sb, kb = c * w / h, (s * w - rho) / h, c / h, (rho + s) / h
        sg2, ka2, sb2, kb2, s2 = sg * sg, ka * ka, sb * sb, kb * kb, s * s
        e8 = s8 * (S / sg)
        a_f = (
            ((e8 + c24 * sb) / sg - ss12) / sg + (3.0 * sg * (d4 + sg2 * d1) - cs6 * ka * (3.0 + sg2))
        ) / 45.0
        a_g = (cc * ka * (ka2 - 3.0) + cs2 * sg2 * sg - ss * ka * ka2) / 15.0
        m_f = ((9.0 * s2 - 10.0) * s2 + 9.0) / (45.0 * c)
        m_g = s * (1.0 - 3.0 * s2) / 15.0
        b_f = (
            ((e8 + c24 * sg / w) / sg - ss12 / w2) / sg
            + (3.0 * sb * (d4 + sb2 * d1) - cs6 * kb * (3.0 + sb2)) / w3
        ) / 45.0
        b_g = (cc * kb * (kb2 - 3.0) + cs2 * sb2 * sb - ss * kb * kb2) / (15.0 * w3)
        # the four terms of each primitive: A, M, M / w^3 and B / w^3
        n_f, n_g = m_f / w3, m_g / w3
        d_f = (a_f - m_f) - (n_f - b_f)
        d_g = (a_g - m_g) - (n_g - b_g)
        c3 = c * c * c
        x, z = (c * d_g - s * d_f) / c3, -(c * d_f + s * d_g) / c3
        if bounds:
            # m_f and n_f are positive: 9 s^4 - 10 s^2 + 9 > 0 and c > 0
            t_f = abs(a_f) + m_f + n_f + abs(b_f)
            t_g = abs(a_g) + abs(m_g) + abs(n_g) + abs(b_g)
            abs_x, abs_z = (c * t_g + s * t_f) / c3, (c * t_f + s * t_g) / c3
    else:
        x, z, abs_x, abs_z = _p_rule(rho, c, s)
    f_x, f_z = x * scale, z * scale
    if not math.isfinite(f_x):
        raise NonFiniteSample(R, f_x, "f_x")
    # f_z must be a normal float and finite: abs(inf) >= _FLOAT_MIN holds
    if not _FLOAT_MIN <= abs(f_z) < math.inf:
        raise NonFiniteSample(R, f_z, "f_z")
    return (f_x, f_z, abs_x, abs_z) if bounds else f_x


def _p_rule(rho: float, c: float, s: float):
    # reduced (f_x, f_z) on a wing of rho <= 1/4 gaps, and the summed
    # magnitudes of each one's terms: the p-integral of the module
    # docstring, each half by n-point Gauss-Legendre in m on [0, rho], with
    # the fewest nodes n whose limit in _RULES reaches rho.  The node t is
    # m = rho t, where g is 1 + (s rho) t on the first half and
    # 1 + 2 s rho - (s rho) t on the second (p = 2 rho - m), and rho scales
    # the finished sums.  The truncation error falls like rho^(2n).  At
    # each limit, against 40-digit quadrature over 34 phi in 0.023..pi/4,
    # it is at most 0.28 eps of either component's own size with 4 nodes
    # (R/a 0.004), 0.026 with 6 (0.05) and 1.4 with 8 (1/4); 4 nodes at R/a
    # 0.01 would miss f_x by 67 eps.  Over 27 R/a in 1e-9..1/4 (each limit
    # and its float neighbours) and 35 phi in 0..pi/4 the result was within
    # 6.2e-16 |f_z| of 40 digits and within 0.67 of its bound
    for limit, nodes in _RULES:
        if rho <= limit:
            break
    cr, sr = c * rho, s * rho
    far = 1.0 + 2.0 * sr
    sum_x = sum_z = 0.0
    for t, w in nodes:
        cm = cr * t
        g = 1.0 + sr * t
        y = cm / math.hypot(cm, g)
        y2, g2 = y * y, g * g
        k = w * y / (g2 * g2)
        sum_x += k * y2 * (5.0 - 3.0 * y2)
        sum_z += k * (15.0 - y2 * (10.0 - 3.0 * y2))
        g = far - sr * t
        y = cm / math.hypot(cm, g)
        y2, g2 = y * y, g * g
        k = w * y / (g2 * g2)
        sum_x += k * y2 * (5.0 - 3.0 * y2)
        sum_z += k * (15.0 - y2 * (10.0 - 3.0 * y2))
    # 0.0 - x, not -x, keeps f_x = +0.0 at phi = 0
    f_x = 0.0 - sr * sum_x / (15.0 * c)
    f_z = -rho * sum_z / 15.0
    # abs, not -f_x: the magnitude of f_x = +0.0 is +0.0
    return f_x, f_z, abs(f_x), -f_z


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
    from .kernels import PressureSample, wing_pressures

    cav, k = WingParams.of(spec), pressure_prefactor(spec)
    samples = []
    for i in range(n):
        r = min(spec.R * i / (n - 1), spec.R)
        samples.append(PressureSample(r, *wing_pressures(cav, k, r)))
    return PressureProfile(spec=spec, samples=tuple(samples))
