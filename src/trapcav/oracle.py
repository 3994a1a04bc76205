"""Independent reference paths: raw vector geometry, Gauss-Legendre and Riemann sums.

Everything here is written against the raw construction -- explicit corner
points, ray-segment intersection via 2D cross products, sums over plain
quadrature nodes -- and shares no computation with the closed-form modules;
only the data types and the spec check :func:`~trapcav.spec.validate`
travel across.  The prefactor K = hbar c pi^2 / 240 is
rebuilt from its own literals on purpose: a corrupted
:data:`trapcav.spec.K` must not move the oracle.

Corner points of the cross section:

    M0 = (0, 0)                      upper wing, apex end
    M1 = (R cos phi,  R sin phi)     upper wing, open end
    M2 = (R cos phi, -R sin phi - a) lower wing, open end
    M3 = (0, -a)                     lower wing, apex end

The wing point at arc coordinate r is P = (r cos phi, r sin phi); its limit
angles are the angles between the wing direction (cos phi, sin phi) and the
rays P->M2 (far end) and P->M3 (near end).  The wing direction is given
geometry, never reconstructed from P: normalizing P loses the direction
entirely once r sin phi underflows.  On a wing so short that the window
is narrower than an ulp of theta1 the two angles may round to one float;
no wing is refused for it.  The inner-integral checks of
:func:`verify_suite` therefore do not take their window from the limit
angles: they integrate the kernel's own window, u1 and the width of
:meth:`~trapcav.geometry.WingParams.window`, with the 20-point rule on
offsets from u1, which keep the width however narrow it is.

The force oracle of :func:`verify_suite` starts from the angle-free
double integral over both wings,

    f = K L integral_0^R integral_0^R s(r) (d_x, d_z) / |d|^7 dt dr,

with d = Q(t) - P(r), Q(t) = (t cos phi, -a - t sin phi) and
s(r) = cos phi (a + 2 r sin phi).  In units of the gap, with c = cos phi,
s = sin phi and rho = R/a, the swap (r, t) -> (t, r) leaves the square in
place, and the average of each integrand with its swap is one-signed:

    f_x = -s c^2 integral integral (r - t)^2 / |d|^7,
    f_z = -c integral integral g^2 / |d|^7,

with |d|^2 = c^2 (r - t)^2 + g^2 and g = 1 + s (r + t).  In p = r + t and
q = r - t, |q| <= m = min(p, 2 rho - p), the q-integral is elementary: in
X = c q, X^2 / |d|^7 and g^2 / |d|^7 have the antiderivatives

    A = X^3 (2 X^2 + 5 g^2) / (15 g^4 (X^2 + g^2)^(5/2)),
    g^2 B = X (15 g^4 + 20 g^2 X^2 + 8 X^4) / (15 g^4 (X^2 + g^2)^(5/2)),

which at X = c m are the integrands of :func:`_gauss_forces`, written in
y = c m / hypot(c m, g); both are >= 0.  ``tests/test_certificates.py``
proves each step.  They are summed with a 20-point Gauss-Legendre rule on panels placed as
QUADPACK's QAGP places breakpoints (Piessens et al., 1983).  The oracle
uses no limit angle and no fan integral.  The primary's closed form is
the same p-integral taken in u = c m / g, where its moments are algebraic,
so the force checks compare a numerical and a closed-form integration of
one integrand: a wrong moment or a wrong coefficient of the closed form
fails them, a mistake in the swap would not.  The check that stays
independent of the swap is the three-ray form, a corner substitution in
the fan angle: ``tests/test_force_reference.py`` holds it at 80 digits,
and ``tests/test_certificates.py`` proves it and ties the closed form to
it and to ``mpmath.quad`` of the proved integral.  Everything runs
on :mod:`math` floats, and the scalar vector geometry on the exact integers
that those floats are multiples of (see :func:`_exact`), except
:func:`riemann_forces`, the dense midpoint sum that the acceptance tests
compare against.  It is a test-side reference, not one of the package's
public names: it needs numpy, which only the ``test`` extra installs, and
the pairwise sum of :mod:`~trapcav.quadrature`.
"""

import math
from typing import NamedTuple

from .errors import NonFiniteSample, NumericDegeneracy, OutOfRange
from .forces import ForceResult
from .geometry import AngleWindow, CavitySpec, Units, validate

# deliberate copies; see module docstring
_HBAR = 1.054571817e-34
_C = 2.99792458e8
_K = _HBAR * _C * math.pi**2 / 240.0

_CHUNK_ROWS = 256

# 20-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_X = (
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095,
)
_GL_W = (
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
    0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
    0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893,
)
_GL = tuple(zip(_GL_X, _GL_W))


class OracleReport(NamedTuple):
    """One primary-vs-oracle comparison.

    ``rel_deviation`` is relative for quantities with a scale (lengths,
    integrals, forces) and absolute radians for angle checks, whose natural
    scale is already order one.  For ``total_force_x`` it is the miss over
    |oracle| + err_x / tolerance, where err_x is the primary's own error
    bound: relative to the oracle's f_x, widened by err_x.  ``passed`` is
    exactly ``rel_deviation <= tolerance``.
    """

    quantity: str
    closed_form: float
    oracle: float
    rel_deviation: float
    tolerance: float
    passed: bool


def _worst(quantity: str, rows, tol: float) -> OracleReport:
    # the report of the (miss, scale, primary, oracle) row of the largest
    # deviation miss / scale, the last of equal ones; where the scale is 0,
    # a zero miss deviates by 0 and any other by inf, and a NaN miss stays
    # NaN, which ranks above every number and fails, as NaN <= tol is false
    devs = [(miss / scale if scale else math.inf if miss > 0.0 else miss, p, o) for miss, scale, p, o in rows]
    nans = [row for row in devs if math.isnan(row[0])]
    dev, primary, oracle = nans[-1] if nans else max(reversed(devs), key=lambda row: row[0])
    return OracleReport(quantity, primary, oracle, dev, tol, dev <= tol)


def _prefactor(spec: CavitySpec) -> float:
    return 1.0 if spec.units is Units.REDUCED else _K


def limit_angles_vector(spec: CavitySpec, r: float) -> AngleWindow:
    """Limit angles from explicitly constructed points, no algebra applied.

    Builds P, M2, M3 and reads both angles off ``math.atan2`` of the plain
    cross and dot products of the wing direction (cos phi, sin phi) with
    P->M2 and P->M3 (see :func:`_windows_raw`).  The vectors and products
    are exact integers (see :func:`_exact`), and only the final cross and
    dot round to floats, so the gap a keeps its digits in P->M3 on a wing
    of any length.  The direction is given geometry and is never recovered
    by normalizing P: at denormal r the components of P round with so few
    bits that P / |P| can point anywhere.  Where the window is narrower
    than an ulp of theta1 (a wing of R/a below about 1e-16) the two angles
    may round to one float, theta1 == theta2, as in
    :func:`~trapcav.geometry.limit_angles`.  An invalid spec raises
    :class:`InvalidCavity`, an ``r`` outside [0, R] :class:`OutOfRange`.
    """
    validate(spec)
    if not (0.0 <= r <= spec.R):
        raise OutOfRange("r", r, 0.0, spec.R)
    (cphi, sphi, a, R, r_exact), one = _exact(math.cos(spec.phi), math.sin(spec.phi), spec.a, spec.R, r)
    # cross and dot are multiples of 1/one^3, and each rounds once
    cube = one**3
    return AngleWindow(*_windows_raw(cphi, sphi, a, R, r_exact, one, lambda y, x: math.atan2(y / cube, x / cube)))


def ray_length_intersection(spec: CavitySpec, r: float, theta: float) -> float:
    """Ray length by intersecting P + b u with the lower wing segment.

    u = (cos(phi - theta), sin(phi - theta)) and the lower wing is
    M3 + t (cos phi, -sin phi); b solves the 2x2 system via cross products,
    formed exactly from the integers of :func:`_exact`, so that only b
    itself rounds.  No trig reduction is applied, which is the point.  The
    line of the lower wing is taken, not only its segment.  A direction has
    a length exactly where it meets that line ahead of P at a finite
    distance, that is where b is a finite positive float, the rule of
    :func:`~trapcav.geometry.ray_length`.  An invalid spec raises
    :class:`InvalidCavity`, an ``r`` outside [0, R] (NaN and infinities
    too) :class:`OutOfRange`, and any other direction, a ray parallel to
    or away from the lower wing, a length past the float range and a NaN
    or infinite ``theta`` included, :class:`NumericDegeneracy`.
    """
    validate(spec)
    if not (0.0 <= r <= spec.R):
        raise OutOfRange("r", r, 0.0, spec.R)
    u = spec.phi - theta
    try:
        values, one = _exact(math.cos(spec.phi), math.sin(spec.phi), spec.a, r, math.cos(u), math.sin(u))
        b = _ray_lengths_raw(*values, one)
    except (ArithmeticError, ValueError):  # inf has no cosine, nan no integer ratio
        b = math.nan
    if not 0.0 < b < math.inf:  # NaN too
        raise NumericDegeneracy(f"no ray length at r={r!r}, theta={theta!r}")
    return b


def _exact(*floats: float) -> tuple[list[int], int]:
    """The ``floats`` as integer multiples of 1/one, and ``one``.

    Every float is an integer over a power of two, so ``one``, the largest
    of those powers, is a multiple of each, and the integers are exact.
    """
    ratios = [x.as_integer_ratio() for x in floats]
    one = max(d for _, d in ratios)
    return [n * (one // d) for n, d in ratios], one


def _windows_raw(cphi, sphi, a, R, r, one, atan2):
    """Limit angles at the wing point(s) ``r``, with the given ``atan2``.

    Each angle is atan2(cross, dot) of the wing direction with the raw
    vector P->M2 or P->M3, the cross product signed so that the clockwise
    angles of the fan come out positive.  The values are multiples of
    1/``one``: integers from :func:`_exact`, with an ``atan2`` that scales
    cross and dot back, or floats (``r`` an array) with ``one=1.0`` and
    ``np.arctan2``.  The gap is lifted by ``one``, so every sum adds terms
    of one degree.
    """
    a = a * one
    px, pz = r * cphi, r * sphi
    m2x, m2z = R * cphi, -R * sphi - a
    out = []
    for tx, tz in ((m2x, m2z), (0, -a)):
        qx, qz = tx - px, tz - pz
        out.append(atan2(sphi * qx - cphi * qz, cphi * qx + sphi * qz))
    return out[0], out[1]


def _ray_lengths_raw(cphi, sphi, a, r, ux, uz, one):
    """Raw-intersection ray lengths along the directions (``ux``, ``uz``).

    The values are multiples of 1/``one``, as in :func:`_windows_raw`:
    integers, whose length rounds once, or floats with ``one=1.0``, ``r``
    of shape (n, 1) and the directions of shape (n, m).
    """
    a = a * one
    qx = -r * cphi
    qz = -a - r * sphi
    d3x, d3z = cphi, -sphi
    num = qx * d3z - qz * d3x
    den = ux * d3z - uz * d3x
    return num / (den * one)


def _fan_sums(spec: CavitySpec, r, n_theta: int):
    """(p_x, p_z) arrays at each wing point of the array ``r``, from an
    ``n_theta``-point midpoint sum."""
    import numpy as np

    from .quadrature import pairwise_sum

    cphi, sphi = math.cos(spec.phi), math.sin(spec.phi)
    theta1, theta2 = _windows_raw(cphi, sphi, spec.a, spec.R, r, 1.0, np.arctan2)
    h_t = (theta2 - theta1) / n_theta
    theta = theta1[:, None] + (np.arange(n_theta)[None, :] + 0.5) * h_t[:, None]
    # degenerate geometry surfaces as non-finite pressure, checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        u = spec.phi - theta
        b = _ray_lengths_raw(cphi, sphi, spec.a, r[:, None], np.cos(u), np.sin(u), 1.0)
        pc = -_prefactor(spec) / b**4
    if not np.all(np.isfinite(pc)):
        bad = int(np.flatnonzero(~np.isfinite(pc))[0])
        raise NonFiniteSample(float(theta.ravel()[bad]), float(pc.ravel()[bad]))
    row_x = -pairwise_sum(pc * np.cos(theta - spec.phi)) * h_t
    row_z = pairwise_sum(pc * np.sin(theta - spec.phi)) * h_t
    return row_x, row_z


def riemann_forces(spec: CavitySpec, n_r: int, n_theta: int) -> ForceResult:
    """Double midpoint sum for both force components.

    For each of ``n_r`` radial midpoints the fan is sampled at ``n_theta``
    angular midpoints of its own window; each direction contributes the
    parallel-plate pressure of its raw-intersection ray length.  All
    reductions run through the fixed pairwise tree, and rows are processed
    in chunks purely for memory locality -- chunking cannot change the sum.
    This is the one function of the module that loads numpy.
    """
    import numpy as np

    from .quadrature import pairwise_sum

    if n_r < 2 or n_theta < 2:
        raise ValueError(f"need at least 2 panels per axis, got ({n_r!r}, {n_theta!r})")
    h_r = spec.R / n_r
    row_x = np.empty(n_r)
    row_z = np.empty(n_r)
    for start in range(0, n_r, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_r)
        r = (np.arange(start, stop) + 0.5) * h_r
        row_x[start:stop], row_z[start:stop] = _fan_sums(spec, r, n_theta)
    f_x = pairwise_sum(row_x) * h_r * spec.L
    f_z = pairwise_sum(row_z) * h_r * spec.L
    return ForceResult(
        spec=spec, f_x=f_x, f_z=f_z, err_x=0.0, err_z=0.0, wing_count=1, converged=True
    )


def _nodes(panels):
    """(node, weight) pairs of the 20-point rule on (start, width) panels."""
    out = []
    for lo, width in panels:
        h = 0.5 * width
        m = lo + h
        out.extend((m + h * x, h * w) for x, w in _GL)
    return out


def _panels(edges):
    """(start, width) panels between consecutive edges."""
    return [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]


def _graded(lo: float, hi: float, center: float, scale: float, steps: int):
    # the edges center and center +- scale 4^k, k < steps, that lie
    # strictly inside (lo, hi), in increasing order; the steps stop once
    # both sides are out
    edges = [center] if lo < center < hi else []
    step = scale
    for _ in range(steps):
        if not (center - step > lo or center + step < hi):
            break
        edges.extend(p for p in (center - step, center + step) if lo < p < hi)
        step *= 4.0
    return sorted(edges)


def _p_panels(rho: float, s: float):
    # the panels of both halves of the p-integral, each on [0, rho]: graded
    # as 4^k gaps (k <= 7) from p = 0, where y rises from 0 to nearly 1 on
    # the scale of the gap, and on a tilted wing (s = sin phi > 0) at the
    # points where g = 1 + s p is 2 4^k (k <= 9), graded from g's zero at
    # -1 / s.  g^-4 holds the integral, and the panel that holds most of it
    # spans g from 1 to 2, not to 4, where the 20-point rule would miss
    # g^-4 by 8e-15; past the last edge lies below 1e-17 of it.  The second
    # half's y rises where c v reaches its g, from 1 + s rho to 1 + 2 s rho:
    # inside the edges graded from 0 while s rho < 8192, and past them only
    # where the whole half is below 1e-11 of the first
    tilt = _graded(0.0, rho, -1.0 / s, 2.0 / s, 10) if s > 0.0 else []
    return _panels(sorted({0.0, *_graded(0.0, rho, 0.0, 1.0, 8), *tilt, rho}))


def _gauss_forces(spec: CavitySpec) -> tuple[float, float]:
    """(f_x, f_z) from the one-signed p-integral, by 20-point Gauss-Legendre.

    In units of the gap (rho = R/a, c = cos phi, s = sin phi), with its own
    literal K L / a^3 applied once:

        f_x = -(s / c) integral_0^(2 rho) y^3 (5 - 3 y^2) / (15 g^4) dp
        f_z = -integral_0^(2 rho) y (15 - 10 y^2 + 3 y^4) / (15 g^4) dp

    with y = c m / hypot(c m, g), m = min(p, 2 rho - p) and g = 1 + s p
    (see the module docstring).  Both integrands are >= 0, so f_x keeps
    the digits of its own size.  The second half is taken in v = 2 rho - p
    (m = v), so that no 2 rho - p cancels, and its g is formed without 2 rho,
    which overflows past rho = 8.99e307.  Both halves share the panels of
    :func:`_p_panels`, at most 19 on a wing of any length, and each term
    carries its 1/15, so that the sums stay finite wherever f_z is.
    """
    rho = spec.R / spec.a
    c, s = math.cos(spec.phi), math.sin(spec.phi)
    sum_x = sum_z = 0.0
    for m, w in _nodes(_p_panels(rho, s)):
        cm = c * m
        for g in (1.0 + s * m, 1.0 + s * (rho - m) + s * rho):
            y = cm / math.hypot(cm, g)
            y2, g2 = y * y, g * g
            k = w * y / (15.0 * g2 * g2)
            sum_x += k * y2 * (5.0 - 3.0 * y2)
            sum_z += k * (15.0 - y2 * (10.0 - 3.0 * y2))
    scale = _prefactor(spec) / spec.a / spec.a / spec.a * spec.L
    # 0.0 - x, not -x, keeps f_x = +0.0 at phi = 0
    return (0.0 - s / c * sum_x) * scale, -sum_z * scale


def verify_suite(spec: CavitySpec) -> list[OracleReport]:
    """Run every primary-vs-oracle comparison on one cavity.

    Checks, in order: limit angles on a 17-point r grid (absolute radians),
    ray lengths on a (r, theta) grid (relative), both components of the
    kernel's fan integrals (reported as ``inner_integral_z`` and
    ``inner_integral_x``) against the 20-point Gauss-Legendre rule on each
    half of the window (relative, gated at 1e-10), and both total forces
    against the one-signed p-integral of :func:`_gauss_forces`, each gated
    at 1e-10 of the oracle's own component.  The inner checks read the
    window as the kernel does, u1 and the width from
    :meth:`~trapcav.geometry.WingParams.window`, and integrate it with the
    kernel's closed form, so they check the kernel's width formula too, and
    a window narrower than an ulp of theta1 keeps its width.  The
    primary's f_x is good to its bound err_x only, so err_x widens the x
    gate: ``total_force_x`` passes where |primary - oracle| <= 1e-10
    |oracle| + err_x, and a zero miss passes (at phi = 0 both sides are
    0).  Every check runs on :mod:`math` floats and the exact integer
    geometry, so a ``verify`` process loads neither numpy nor
    :mod:`fractions`.  Each check reports its worst sample, the last of
    equal ones; a NaN on either side of a comparison is the worst of all,
    and fails its check.  A check that fails is reported in the returned
    list, not raised.  The primary forces run first, so an invalid spec
    raises :class:`InvalidCavity`, and a cavity whose forces are no normal
    floats (R/a below about 1e-154, say) the :class:`NonFiniteSample` of
    :func:`~trapcav.forces.total_forces`, before any check (a flat wing
    past about 1.59e308 gaps too); every other cavity up to R/a 1.79e308
    gets its six reports, and they pass, or a steep wing whose ray length
    leaves the float range raises :class:`NumericDegeneracy` (R/a 1.79e308
    at 44.7 degrees, say).  Each deviation is a miss over a
    scale, taken in :func:`_worst`; a zero scale makes a zero miss 0 and
    any other inf.  The oracle's raw vectors are exact, so tilted wings of
    any length keep the gap.  The
    oracle keeps its own literal prefactor, so a corrupted
    :data:`trapcav.spec.K` moves only the primary forces and fails the
    force checks.
    """
    # primary-path imports are confined here: this function is the
    # comparison harness, the oracle computations above stay independent
    from .forces import total_forces
    from .geometry import WingParams, limit_angles, ray_length
    from .kernels import fan_integrals

    prim = total_forces(spec)  # validates the spec
    angles, lengths, inner_z, inner_x = [], [], [], []
    for k in range(17):
        r = spec.R * (k / 16)  # k / 16 is exact; R * k would overflow on the longest wings
        for p, o in zip(limit_angles(spec, r), limit_angles_vector(spec, r)):
            angles.append((abs(p - o), 1.0, p, o))
    for frac in (1 / 7, 1 / 3, 1 / 2, 2 / 3, 6 / 7):
        r = spec.R * frac
        window = limit_angles_vector(spec, r)
        for j in range(9):
            theta = window.theta1 + window.width * (j + 0.5) / 9
            p, o = ray_length(spec, r, theta), ray_length_intersection(spec, r, theta)
            lengths.append((abs(p - o), abs(o), p, o))
    cav = WingParams.of(spec)
    for frac in (0.0, 0.5, 15 / 16):
        u1, width, _ = cav.window(spec.R * frac)
        x, z = fan_integrals(u1, width, cav.cphi, cav.sphi)
        # the raw integrand is a degree-5 trig polynomial, which the rule on
        # each half of an O(1)-wide window gets to below 1e-20; its nodes
        # are offsets from u1, so a window narrower than an ulp of u1 keeps
        # its width
        nodes = _nodes(_panels((0.0, 0.5 * width, width)))
        for rows, value, trig in ((inner_z, z, math.sin), (inner_x, x, math.cos)):
            quad = math.fsum(w * math.sin(u1 + t) ** 4 * trig(u1 + t + spec.phi) for t, w in nodes)
            # both values can be ~0 (antisymmetric x integrand); the window
            # width bounds the integral and gives the comparison a scale
            rows.append((abs(value - quad), max(abs(value), abs(quad), 0.1 * width), value, quad))

    orac_x, orac_z = _gauss_forces(spec)
    # x passes where |p - o| <= 1e-10 |o| + err_x; that scale is 0 on a flat
    # short wing, where both forces are 0
    x_row = (abs(prim.f_x - orac_x), abs(orac_x) + prim.err_x / 1e-10, prim.f_x, orac_x)
    return [
        _worst("limit_angles", angles, 1e-12),
        _worst("ray_length", lengths, 1e-12),
        _worst("inner_integral_z", inner_z, 1e-10),
        _worst("inner_integral_x", inner_x, 1e-10),
        _worst("total_force_z", [(abs(prim.f_z - orac_z), abs(orac_z), prim.f_z, orac_z)], 1e-10),
        _worst("total_force_x", [x_row], 1e-10),
    ]
