"""Independent reference paths: raw vector geometry, Gauss-Legendre and Riemann sums.

Everything here is written against the raw construction -- explicit corner
points, ray-segment intersection via 2D cross products, sums over plain
quadrature nodes -- and shares no computation with the closed-form modules;
only the data types and the spec check :func:`~trapcav.geometry.validate`
travel across.  The prefactor K = hbar c pi^2 / 240 is
rebuilt from its own literals on purpose: a corrupted
:data:`trapcav.geometry.K` must not move the oracle.

Corner points of the cross section:

    M0 = (0, 0)                      upper wing, apex end
    M1 = (R cos phi,  R sin phi)     upper wing, open end
    M2 = (R cos phi, -R sin phi - a) lower wing, open end
    M3 = (0, -a)                     lower wing, apex end

The wing point at arc coordinate r is P = (r cos phi, r sin phi); its limit
angles are the angles between the wing direction (cos phi, sin phi) and the
rays P->M2 (far end) and P->M3 (near end).  The wing direction is given
geometry, never reconstructed from P: normalizing P loses the direction
entirely once r sin phi underflows.

The force oracle of :func:`verify_suite` is the angle-free double integral
over both wings,

    f = K L integral_0^R integral_0^R s(r) (d_x, d_z) / |d|^7 dt dr,

with d = Q(t) - P(r), Q(t) = (t cos phi, -a - t sin phi) and
s(r) = cos phi (a + 2 r sin phi), summed with a 20-point Gauss-Legendre
rule on panels placed as QUADPACK's QAGP places breakpoints (Piessens et
al., 1983).  It uses no limit angle and no fan integral.  Everything runs
on :mod:`math` floats, and the scalar vector geometry on exact
:class:`~fractions.Fraction` values of them, except :func:`riemann_forces`,
the dense midpoint sum that the acceptance tests compare against.  It is a test-side reference,
not one of the package's public names: it needs numpy, which only the
``test`` extra installs, and the pairwise sum of :mod:`~trapcav.quadrature`.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateFan, NonFiniteSample, NumericDegeneracy, OutOfRange
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
    scale is already order one.  ``passed`` is exactly
    ``rel_deviation <= tolerance``.
    """

    quantity: str
    closed_form: float
    oracle: float
    rel_deviation: float
    tolerance: float
    passed: bool


def _report(quantity: str, primary: float, oracle: float, dev: float, tol: float) -> OracleReport:
    return OracleReport(quantity, primary, oracle, dev, tol, dev <= tol)


def _prefactor(spec: CavitySpec) -> float:
    return 1.0 if spec.units is Units.REDUCED else _K


def limit_angles_vector(spec: CavitySpec, r: float) -> AngleWindow:
    """Limit angles from explicitly constructed points, no algebra applied.

    Builds P, M2, M3 and reads both angles off ``math.atan2`` of the plain
    cross and dot products of the wing direction (cos phi, sin phi) with
    P->M2 and P->M3 (see :func:`_windows_raw`).  The vectors and products
    are exact :class:`~fractions.Fraction` values of the float inputs, and
    only the final cross and dot round to floats, so the gap a keeps its
    digits in P->M3 on a wing of any length.  The direction is given
    geometry and is never recovered by normalizing P: at denormal r the
    components of P round with so few bits that P / |P| can point anywhere.
    An invalid spec raises :class:`InvalidCavity`.
    """
    validate(spec)
    if not (0.0 <= r <= spec.R):
        raise OutOfRange("r", r, 0.0, spec.R)
    theta1, theta2 = _windows_raw(spec, Fraction(r), math.atan2, Fraction)
    if theta1 >= theta2:
        raise DegenerateFan(
            f"oracle fan collapsed at r={r!r}: theta1={theta1!r} >= theta2={theta2!r}"
        )
    return AngleWindow(theta1=theta1, theta2=theta2)


def ray_length_intersection(spec: CavitySpec, r: float, theta: float) -> float:
    """Ray length by intersecting P + b u with the lower wing segment.

    u = (cos(phi - theta), sin(phi - theta)) and the lower wing is
    M3 + t (cos phi, -sin phi); b solves the 2x2 system via cross products,
    formed exactly from :class:`~fractions.Fraction` values of the floats,
    so that only b itself rounds.  No trig reduction is applied, which is
    the point.  An invalid spec raises :class:`InvalidCavity`, an ``r``
    outside [0, R] (NaN and infinities too) :class:`OutOfRange`, and a ray
    parallel to the lower wing, a length past the float range or a
    ``theta`` that is not finite :class:`NumericDegeneracy`.
    """
    validate(spec)
    if not (0.0 <= r <= spec.R):
        raise OutOfRange("r", r, 0.0, spec.R)
    u = spec.phi - theta
    try:
        ux, uz = Fraction(math.cos(u)), Fraction(math.sin(u))
        return float(_ray_lengths_raw(spec, Fraction(r), ux, uz, Fraction))
    except (ArithmeticError, ValueError):  # Fraction(nan) raises ValueError
        raise NumericDegeneracy(f"no finite ray length at r={r!r}, theta={theta!r}") from None


def _windows_raw(spec: CavitySpec, r, atan2, number=float):
    """Limit angles at the wing point(s) ``r``, with the given ``atan2``.

    Each angle is atan2(cross, dot) of the wing direction with the raw
    vector P->M2 or P->M3, the cross product signed so that the clockwise
    angles of the fan come out positive.  The spec's floats enter as
    ``number`` values: ``r`` is a Fraction with ``math.atan2`` and
    ``number=Fraction``, or an array of floats with ``np.arctan2``.
    """
    cphi, sphi, a, R = map(number, (math.cos(spec.phi), math.sin(spec.phi), spec.a, spec.R))
    px, pz = r * cphi, r * sphi
    m2x, m2z = R * cphi, -R * sphi - a
    out = []
    for tx, tz in ((m2x, m2z), (0, -a)):
        qx, qz = tx - px, tz - pz
        out.append(atan2(sphi * qx - cphi * qz, cphi * qx + sphi * qz))
    return out[0], out[1]


def _ray_lengths_raw(spec: CavitySpec, r, ux, uz, number=float):
    """Raw-intersection ray lengths along the directions (``ux``, ``uz``).

    The spec's floats enter as ``number`` values: Fractions with
    ``number=Fraction``, or arrays of floats, ``r`` of shape (n, 1) and
    the directions of shape (n, m).
    """
    cphi, sphi, a = map(number, (math.cos(spec.phi), math.sin(spec.phi), spec.a))
    qx = -r * cphi
    qz = -a - r * sphi
    d3x, d3z = cphi, -sphi
    num = qx * d3z - qz * d3x
    den = ux * d3z - uz * d3x
    return num / den


def _fan_sums(spec: CavitySpec, r, n_theta: int):
    """(p_x, p_z) arrays at each wing point of the array ``r``, from an
    ``n_theta``-point midpoint sum."""
    import numpy as np

    from .quadrature import pairwise_sum

    theta1, theta2 = _windows_raw(spec, r, np.arctan2)
    h_t = (theta2 - theta1) / n_theta
    theta = theta1[:, None] + (np.arange(n_theta)[None, :] + 0.5) * h_t[:, None]
    # degenerate geometry surfaces as non-finite pressure, checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        u = spec.phi - theta
        b = _ray_lengths_raw(spec, r[:, None], np.cos(u), np.sin(u))
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


def _wing_panels(rho: float):
    # r panels on [0, rho] meeting at rho / 2 and at 4^k and rho - 4^k below
    # it, graded towards both wing ends, where the pressure varies on the
    # scale of the gap
    half = 0.5 * rho
    near = []
    p = 1.0
    while p < half:
        near.append(p)
        p *= 4.0
    return _panels([0.0, *near, half, *(rho - p for p in reversed(near)), rho])


def _offset_panels(lo: float, scale: float, rho: float):
    # t panels in u = t - t*, from lo = -t* to rho - t*, meeting at u = 0
    # and u = +-scale 4^k for k <= 7.  Past 4^7 scale the integrand's tail
    # falls like |u|^-6, so what lies beyond is below (1/16384)^5, about
    # 8.5e-22, of the peak, and the rest of the range is one panel.  The
    # last width is the correctly rounded rho - t* - edge, so the widths
    # add up to rho even where the wing is much shorter than |t*|
    hi = rho + lo
    inner = [0.0] if lo < 0.0 < hi else []
    step = scale
    while (-step > lo or step < hi) and step <= 16384.0 * scale:
        inner.extend(p for p in (-step, step) if lo < p < hi)
        step *= 4.0
    edges = [lo, *sorted(inner)]
    return [*_panels(edges), (edges[-1], math.fsum((rho, lo, -edges[-1])))]


def _gauss_forces(spec: CavitySpec) -> tuple[float, float]:
    """(f_x, f_z) from the 20-point Gauss-Legendre double integral.

    In units of the gap (rho = R/a), with its own literal K L / a^3 applied
    once.  For each r node the lower wing is integrated in u = t - t*, the
    offset from the foot t* = r cos 2 phi - sin phi of the perpendicular
    from P(r): there d = (cos phi u - sin phi s, -cos phi s - sin phi u)
    and |d|^2 = u^2 + s^2, with s = s(r), so the peak of width s at u = 0
    keeps its digits on wings of any length.
    """
    rho = spec.R / spec.a
    c, s = math.cos(spec.phi), math.sin(spec.phi)
    c2 = math.cos(2.0 * spec.phi)
    f_x = f_z = 0.0
    for r, w_r in _nodes(_wing_panels(rho)):
        sr = c * (1.0 + 2.0 * r * s)
        sr2 = sr * sr
        # sums of 1 / |d|^7 and u / |d|^7 along the lower wing
        a0 = a1 = 0.0
        for u, w_t in _nodes(_offset_panels(s - r * c2, sr, rho)):
            q = u * u + sr2
            k = w_t / (q * q * q * math.sqrt(q))
            a0 += k
            a1 += k * u
        if a0 == a1 == 0.0:
            # the lower wing is out of reach; w_r s(r) may overflow there
            continue
        f_x += w_r * sr * (c * a1 - s * sr * a0)
        f_z -= w_r * sr * (c * sr * a0 + s * a1)
    scale = _prefactor(spec) / spec.a / spec.a / spec.a * spec.L
    return f_x * scale, f_z * scale


def verify_suite(spec: CavitySpec) -> list[OracleReport]:
    """Run every primary-vs-oracle comparison on one cavity.

    Checks, in order: limit angles on a 17-point r grid (absolute radians),
    ray lengths on a (r, theta) grid (relative), both components of
    :func:`fan_integrals` (reported as ``inner_integral_z`` and
    ``inner_integral_x``) against the 20-point Gauss-Legendre rule on each
    half of the window (relative, gated at 1e-10), and both total forces
    against the Gauss-Legendre double integral of :func:`_gauss_forces`
    (relative, gated at 1e-10; the x force is measured against the z scale
    where it vanishes).  Every check runs on :mod:`math` floats and the
    exact :class:`~fractions.Fraction` geometry, so a ``verify`` process
    loads no numpy.  A check that fails is reported in
    the returned list, not raised.  An invalid spec raises
    :class:`InvalidCavity`.  :class:`DegenerateFan` is raised only where
    the limit angles collapse in floats, at every R/a <= 1e-16, where the
    primary :func:`~trapcav.geometry.limit_angles` check rounds a wing
    point's two limit angles to one float; ``trapcav verify`` then exits
    1.  The oracle's raw vectors are exact, so tilted wings of any length
    keep the gap.  The oracle keeps its own literal prefactor, so a
    corrupted :data:`trapcav.geometry.K` moves only the primary forces and
    fails the force checks.
    """
    # primary-path imports are confined here: this function is the
    # comparison harness, the oracle computations above stay independent
    from .forces import total_forces
    from .geometry import limit_angles, ray_length
    from .kernels import fan_integrals

    validate(spec)
    reports: list[OracleReport] = []

    worst = (0.0, 0.0, 0.0)
    for k in range(17):
        r = spec.R * k / 16
        prim = limit_angles(spec, r)
        orac = limit_angles_vector(spec, r)
        for p, o in ((prim.theta1, orac.theta1), (prim.theta2, orac.theta2)):
            dev = abs(p - o)
            if dev >= worst[0]:
                worst = (dev, p, o)
    reports.append(_report("limit_angles", worst[1], worst[2], worst[0], 1e-12))

    worst = (0.0, 0.0, 0.0)
    for frac in (1 / 7, 1 / 3, 1 / 2, 2 / 3, 6 / 7):
        r = spec.R * frac
        window = limit_angles_vector(spec, r)
        for j in range(9):
            theta = window.theta1 + window.width * (j + 0.5) / 9
            p = ray_length(spec, r, theta)
            o = ray_length_intersection(spec, r, theta)
            dev = abs(p - o) / abs(o)
            if dev >= worst[0]:
                worst = (dev, p, o)
    reports.append(_report("ray_length", worst[1], worst[2], worst[0], 1e-12))

    for name, component, trig in (
        ("inner_integral_z", 1, math.sin),
        ("inner_integral_x", 0, math.cos),
    ):
        worst = (0.0, 0.0, 0.0)
        for frac in (0.0, 0.5, 15 / 16):
            r = spec.R * frac
            window = limit_angles(spec, r)
            value = fan_integrals(window, spec.phi)[component]
            # the raw integrand is a degree-5 trig polynomial, which the
            # rule on each half of an O(1)-wide window gets to below 1e-20
            mid = window.theta1 + 0.5 * window.width
            halves = _panels((window.theta1, mid, window.theta2))
            quad = math.fsum(
                w * math.sin(theta - 2.0 * spec.phi) ** 4 * trig(theta - spec.phi)
                for theta, w in _nodes(halves)
            )
            # both values can be ~0 (antisymmetric x integrand); the window
            # width bounds the integral and gives the comparison a scale
            floor = 0.1 * window.width
            dev = abs(value - quad) / max(abs(value), abs(quad), floor)
            if dev >= worst[0]:
                worst = (dev, value, quad)
        reports.append(_report(name, worst[1], worst[2], worst[0], 1e-10))

    prim_f = total_forces(spec, 1e-9)
    orac_x, orac_z = _gauss_forces(spec)
    dev_z = abs(prim_f.f_z - orac_z) / abs(orac_z)
    reports.append(_report("total_force_z", prim_f.f_z, orac_z, dev_z, 1e-10))
    scale_x = max(abs(orac_x), abs(orac_z))
    dev_x = abs(prim_f.f_x - orac_x) / scale_x
    reports.append(_report("total_force_x", prim_f.f_x, orac_x, dev_x, 1e-10))
    return reports
