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
apex.  With I_x = c I_G - sin(phi) I_F and I_z = c I_F + sin(phi) I_G,

    f_x a^3 / (K L) = c^-3 [(I_x(A) - I_x(M)) - (I_x(M) - I_x(B)) / w^3]

and f_z is the same in I_z with a leading minus sign.  There is no log and
no division by sin 2 phi, so phi = 0 is an ordinary point.  The B terms
divide by (sigma_B w)^3, never by sigma_B^3 alone, which underflows on
wings longer than about 1e102 gaps.

Tensor rule (rho <= 1/4).  On a short wing the three rays nearly coincide
and their differences lose digits as (a / R)^2.  There the force is the
angle-free double integral over both wings,

    f = K L integral_0^R integral_0^R s(r) (d_x, d_z) / |d|^7 dt dr,

with d = Q(t) - P(r), P = r (cos phi, sin phi) on the upper wing and
Q = (t cos phi, -a - t sin phi) on the lower one, summed with an n-point
Gauss-Legendre rule on both axes.  Its truncation error falls like
(R / a)^(2n), so n grows with the wing from 4 (R/a <= 0.004) to 8
(R/a > 0.13), and each rule's truncation stays within 1.6 eps of each
component.  The node pairs (r, t) and (t, r) are summed as one term, so
each rule runs over two tables built at import from its nodes and
weights on [-1, 1]: the n (n - 1) / 2 node pairs i < j and the n diagonal
nodes.  A cavity only scales them by h = R / (2 a).  Over R/a 1e-9..1/4
and phi 0..0.785 the rules are within 6.1e-16 |f_z| of 80 digits.

Both forms run on plain floats, as does :func:`pressure_profile`, which
samples the pressure kernel of :mod:`~trapcav.kernels`.  :func:`expulsion`
evaluates the same forms at many angles of one cavity and keeps only f_x,
for the phi* search of :mod:`~trapcav.analysis`.
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

# wings up to this many gaps long use the tensor rule
_SHORT_WING = 0.25

# n-point Gauss-Legendre nodes and weights on [-1, 1], n = 4..8, each the
# correctly rounded value of the exact node or weight
_GL = {
    4: (
        (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526),
        (0.34785484513745385, 0.6521451548625461, 0.6521451548625461, 0.34785484513745385),
    ),
    5: (
        (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
        (
            0.23692688505618908, 0.47862867049936647, 0.5688888888888889, 0.47862867049936647,
            0.23692688505618908,
        ),
    ),
    6: (
        (
            -0.932469514203152, -0.6612093864662645, -0.2386191860831969, 0.2386191860831969,
            0.6612093864662645, 0.932469514203152,
        ),
        (
            0.17132449237917036, 0.3607615730481386, 0.46791393457269104, 0.46791393457269104,
            0.3607615730481386, 0.17132449237917036,
        ),
    ),
    7: (
        (
            -0.9491079123427585, -0.7415311855993945, -0.4058451513773972, 0.0,
            0.4058451513773972, 0.7415311855993945, 0.9491079123427585,
        ),
        (
            0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694,
            0.3818300505051189, 0.27970539148927664, 0.1294849661688697,
        ),
    ),
    8: (
        (
            -0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.1834346424956498,
            0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363,
        ),
        (
            0.10122853629037626, 0.22238103445337448, 0.31370664587788727, 0.362683783378362,
            0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626,
        ),
    ),
}


def _tables(x: tuple[float, ...], w: tuple[float, ...]):
    # the tensor rule's tables on [-1, 1]: (x_i - x_j, 2 + x_i + x_j, w_i w_j)
    # for the node pairs i < j, and (2 (1 + x_i), w_i^2) on the diagonal
    n = len(x)
    pairs = tuple((x[i] - x[j], 2.0 + x[i] + x[j], w[i] * w[j]) for i in range(n) for j in range(i + 1, n))
    return pairs, tuple((2.0 * (1.0 + xi), wi * wi) for xi, wi in zip(x, w))


# (longest R/a, pairs, diagonal) of each order, shortest wings first; the
# limits are calibrated in _tensor_rule
_RULES = tuple(
    (limit, *_tables(*_GL[n])) for limit, n in ((0.004, 4), (0.02, 5), (0.05, 6), (0.13, 7), (_SHORT_WING, 8))
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
    ones an n x n tensor rule, n = 4..8 by wing length (see the module
    docstring); either costs a fixed number of float operations.
    ``err_x`` and ``err_z`` are 8 eps times the summed magnitudes of each
    component's terms: the four primitive values of the three-ray form,
    each as the magnitudes of its two projections, or the tensor rule's
    terms, which have one sign.  On
    a 50-digit grid over R/a 1e-6..1e6 and phi 0..0.78 the largest error
    seen was 0.75 of its bound, and every force was within 3.5e-14 |f_z|
    (the worst just above R/a = 1/4 near phi = pi/4; 3e-15 |f_z| for
    R/a >= 10).  ``rel_tol`` only sets ``converged``, which holds when the
    larger bound is within ``rel_tol`` of the larger component; it must be
    at least ``REL_TOL_FLOOR`` and finite.  With ``wing_count=2`` the x
    force and its bound double and the z force cancels exactly between the
    mirror-image wings.  A force that is not
    finite, or an f_z that is not a normal float (SI gaps below about
    1e-112 m, or R/a below about 1e-154), raises :class:`NonFiniteSample`.
    """
    validate(spec)
    _check_options(rel_tol, wing_count)
    return _forces(spec, _scale(spec), rel_tol, wing_count)


def expulsion(base: CavitySpec, angles: list[float]) -> list[float]:
    """The signed f_x of a validated ``base`` at each of ``angles``.

    Each value has the bits of ``total_forces(base._replace(phi=phi)).f_x``
    and a failing angle raises the :class:`NonFiniteSample` that call
    would; no spec, check or :class:`ForceResult` is made per angle.  The
    caller vouches that ``base`` with each angle is a valid cavity.
    """
    rho, scale = base.R / base.a, _scale(base)
    return [_reduced(base.R, rho, phi, scale)[0] for phi in angles]


def _scale(spec: CavitySpec) -> float:
    # K L / a^3, the scale of a wing's forces in units of the gap
    return pressure_prefactor(spec) / spec.a / spec.a / spec.a * spec.L


def _forces(spec: CavitySpec, scale: float, rel_tol: float, wing_count: int) -> ForceResult:
    # a validated spec's forces at its _scale, which a sweep computes once
    f_x, f_z, abs_x, abs_z = _reduced(spec.R, spec.R / spec.a, spec.phi, scale)
    err_x, err_z = _ROUNDING * abs_x * scale, _ROUNDING * abs_z * scale
    converged = max(err_x, err_z) <= rel_tol * max(abs(f_x), abs(f_z))
    if wing_count == 2:
        f_x, err_x = 2.0 * f_x, 2.0 * err_x
        f_z = err_z = 0.0
    # as ForceResult(...), without the NamedTuple's Python-level __new__
    return tuple.__new__(ForceResult, (spec, f_x, f_z, err_x, err_z, wing_count, converged))


def _reduced(R: float, rho: float, phi: float, scale: float):
    # (f_x, f_z) on a wing R long and rho gaps long at half-angle phi: the
    # reduced forces, by the formula for its length, times scale; and the
    # summed magnitudes of each reduced force's terms.  A force that is no
    # finite float, or an f_z that is no normal one, raises NonFiniteSample
    c, s = math.cos(phi), math.sin(phi)
    if rho > _SHORT_WING:
        x, z, abs_x, abs_z = _three_ray(rho, c, s, math.cos(2.0 * phi), math.sin(2.0 * phi))
    else:
        x, z, abs_x, abs_z = _tensor_rule(rho, c, s)
    f_x, f_z = x * scale, z * scale
    if not math.isfinite(f_x):
        raise NonFiniteSample(R, f_x, "f_x")
    # f_z must be a normal float and finite: abs(inf) >= _FLOAT_MIN holds
    if not _FLOAT_MIN <= abs(f_z) < math.inf:
        raise NonFiniteSample(R, f_z, "f_z")
    return f_x, f_z, abs_x, abs_z


def _three_ray(rho: float, c: float, s: float, C: float, S: float):
    # reduced (f_x, f_z) on a wing of rho > 1/4 gaps, and the summed
    # magnitudes of each one's terms.  Each ray gives I_F / w^3 and I_G / w^3
    # from its sine sg, its cosine ka, mu = C sg + S ka (the sine of the ray
    # angle plus 2 phi) and t = sg w; w = 1 for rays A and M.  45 sg^3 I_F
    # is written with mu, which is small where its own terms would cancel,
    # and as a polynomial in 1/t, so that neither sg^3 nor w^3 divides
    # alone.  Ray A has sine sg and cosine ka, B has sb and kb, M has c and
    # s.  A and B lie at the same distance h from their wing points, so sg
    # is t for A and B and mu for B, and sb = c / h is mu for A
    cc, ss, cs = C * C, S * S, C * S
    ss8, ss12, cs2, cs6 = 8.0 * ss, 12.0 * ss, 2.0 * cs, 6.0 * cs
    d4, d1, c24 = ss - 4.0 * cc, ss - cc, 24.0 * C
    w = 1.0 + 2.0 * rho * s
    w2 = w * w
    w3 = w2 * w
    h = math.hypot(rho + s, c)
    sg, ka, sb, kb = (c + rho * S) / h, (s - rho * C) / h, c / h, (rho + s) / h
    sg2, ka2, sb2, kb2, c2, s2 = sg * sg, ka * ka, sb * sb, kb * kb, c * c, s * s
    a_f = (
        ((ss8 / sg + c24 * sb) / sg - ss12) / sg + (3.0 * sg * (d4 + sg2 * d1) - cs6 * ka * (3.0 + sg2))
    ) / 45.0
    a_g = (cc * ka * (ka2 - 3.0) + cs2 * sg2 * sg - ss * ka * ka2) / 15.0
    m_f = (((ss8 / c + c24 * c) / c - ss12) / c + (3.0 * c * (d4 + c2 * d1) - cs6 * s * (3.0 + c2))) / 45.0
    m_g = (cc * s * (s2 - 3.0) + cs2 * c2 * c - ss * s * s2) / 15.0
    b_f = (
        ((ss8 / sg + c24 * sg / w) / sg - ss12 / w2) / sg
        + (3.0 * sb * (d4 + sb2 * d1) - cs6 * kb * (3.0 + sb2)) / w3
    ) / 45.0
    b_g = (cc * kb * (kb2 - 3.0) + cs2 * sb2 * sb - ss * kb * kb2) / (15.0 * w3)
    # the four terms of each primitive: A, M, M / w^3 and B / w^3
    n_f, n_g = m_f / w3, m_g / w3
    d_f = (a_f - m_f) - (n_f - b_f)
    d_g = (a_g - m_g) - (n_g - b_g)
    t_f = abs(a_f) + abs(m_f) + abs(n_f) + abs(b_f)
    t_g = abs(a_g) + abs(m_g) + abs(n_g) + abs(b_g)
    c3 = c * c * c
    return (
        (c * d_g - s * d_f) / c3,
        -(c * d_f + s * d_g) / c3,
        (c * t_g + s * t_f) / c3,
        (c * t_f + s * t_g) / c3,
    )


def _tensor_rule(rho: float, c: float, s: float):
    # reduced (f_x, f_z) on a wing of rho <= 1/4 gaps, and the summed
    # magnitudes of each one's terms: n x n Gauss-Legendre on [0, rho]^2,
    # with the fewest nodes n = 4..8 whose limit in _RULES reaches rho.
    # With e = cos(phi) (r - t) and g = 1 + (r + t) sin(phi), |d|^2 is
    # e^2 + g^2, and the integrand's halves at (r, t) and (t, r) add up to
    # -sin(phi) e^2 and -cos(phi) g^2 over |d|^7, so each node pair is
    # evaluated once and every term has one sign.  With h = rho / 2 the
    # nodes are h (1 + x) and the weights h w, so e and g of a pair are
    # (c h) D and 1 + (s h) P from the rule's pairs or diagonal, and h^2
    # scales the finished sums.  The truncation error falls like rho^(2n).
    # At each rule's limit, against 16 nodes at 40 digits over 41 phi in
    # 1e-3..0.785, it is at most 0.20 eps of either component's own size
    # with 4 nodes (R/a 0.004), 0.10 with 5 (0.02), 0.034 with 6 (0.05),
    # 0.39 with 7 (0.13) and 1.6 with 8 (1/4), so none outgrows the 8-point
    # rule's at 1/4 and _ROUNDING still bounds the error.  Over 63 R/a in
    # 1e-9..1/4 (each limit and its float neighbours) and 11 phi in
    # 0..0.785 the result was within 6.1e-16 |f_z| of 80 digits and within
    # 0.67 of its bound
    for limit, pairs, diagonal_nodes in _RULES:
        if rho <= limit:
            break
    h = 0.5 * rho
    ch, sh = c * h, s * h
    diagonal = pairs_x = pairs_z = 0.0
    for p, w in diagonal_nodes:
        g = 1.0 + sh * p
        g2 = g * g
        diagonal += w / (g2 * g2 * g)
    for d, p, w in pairs:
        e = ch * d
        g = 1.0 + sh * p
        e2, g2 = e * e, g * g
        q = e2 + g2
        weight = w / (q * q * q * math.sqrt(q))
        pairs_x += weight * e2
        pairs_z += weight * g2
    h2 = h * h
    # 0.0 - x, not -x, keeps f_x = +0.0 at phi = 0
    f_x = 0.0 - 2.0 * s * h2 * pairs_x
    f_z = -c * h2 * (diagonal + 2.0 * pairs_z)
    return f_x, f_z, -f_x, -f_z


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
