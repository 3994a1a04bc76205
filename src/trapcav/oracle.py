"""Brute-force reference paths: raw vector geometry and dense Riemann sums.

Everything here is written against the raw construction -- explicit corner
points, ray-segment intersection via 2D cross products, midpoint double
sums -- and shares no computation with the closed-form modules; only the
data types travel across.  The prefactor K = hbar c pi^2 / 240 is rebuilt
from its own literals on purpose: a corrupted :data:`trapcav.kernels.K`
must not move the oracle.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFan, NonFiniteSample, OutOfRange
from .forces import ForceResult
from .geometry import AngleWindow, CavitySpec, Units
from .quadrature import pairwise_sum

# deliberate copies; see module docstring
_HBAR = 1.054571817e-34
_C = 2.99792458e8
_K = _HBAR * _C * math.pi**2 / 240.0

_CHUNK_ROWS = 256


@dataclass(frozen=True)
class OracleReport:
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
    # plain floats and bool, also where the primary path hands numpy scalars
    return OracleReport(
        quantity=quantity,
        closed_form=float(primary),
        oracle=float(oracle),
        rel_deviation=float(dev),
        tolerance=tol,
        passed=bool(dev <= tol),
    )


def _prefactor(spec: CavitySpec) -> float:
    return 1.0 if spec.units is Units.REDUCED else _K


def limit_angles_vector(spec: CavitySpec, r: float) -> AngleWindow:
    """Limit angles from explicitly constructed points, no algebra applied.

    Builds P, M2, M3 and reads both angles off arctan2 of the plain cross
    and dot products of the wing direction (cos phi, sin phi) with P->M2
    and P->M3 (see :func:`_windows_raw`).  The direction is given geometry
    and is never recovered by normalizing P: at denormal r the components
    of P round with so few bits that P / |P| can point anywhere.
    """
    if not (0.0 <= r <= spec.R):
        raise OutOfRange("r", r, 0.0, spec.R)
    t1, t2 = _windows_raw(spec, np.array([r]))
    theta1, theta2 = float(t1[0]), float(t2[0])
    if theta1 >= theta2:
        raise DegenerateFan(
            f"oracle fan collapsed at r={r!r}: theta1={theta1!r} >= theta2={theta2!r}"
        )
    return AngleWindow(theta1=theta1, theta2=theta2)


def ray_length_intersection(spec: CavitySpec, r: float, theta: float) -> float:
    """Ray length by intersecting P + b u with the lower wing segment.

    u = (cos(phi - theta), sin(phi - theta)) and the lower wing is
    M3 + t (cos phi, -sin phi); b solves the 2x2 system via cross products.
    No trig reduction is applied, which is the point.
    """
    return float(_ray_lengths_raw(spec, np.array([r]), np.array([[theta]]))[0, 0])


def _windows_raw(spec: CavitySpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized limit angles at the wing points ``r``.

    Each angle is arctan2(cross, dot) of the wing direction with the raw
    vector P->M2 or P->M3, the cross product signed so that the clockwise
    angles of the fan come out positive.
    """
    cphi = math.cos(spec.phi)
    sphi = math.sin(spec.phi)
    px, pz = r * cphi, r * sphi
    m2x, m2z = spec.R * cphi, -spec.R * sphi - spec.a
    out = []
    for tx, tz in ((m2x, m2z), (0.0, -spec.a)):
        qx, qz = tx - px, tz - pz
        out.append(np.arctan2(sphi * qx - cphi * qz, cphi * qx + sphi * qz))
    return out[0], out[1]


def _fan_sums(spec: CavitySpec, r: np.ndarray, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """(p_x, p_z) at each wing point ``r`` from an ``n_theta``-point midpoint sum."""
    theta1, theta2 = _windows_raw(spec, r)
    h_t = (theta2 - theta1) / n_theta
    theta = theta1[:, None] + (np.arange(n_theta)[None, :] + 0.5) * h_t[:, None]
    # degenerate geometry surfaces as non-finite pressure, checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        b = _ray_lengths_raw(spec, r, theta)
        pc = -_prefactor(spec) / b**4
    if not np.all(np.isfinite(pc)):
        bad = int(np.flatnonzero(~np.isfinite(pc))[0])
        raise NonFiniteSample(float(theta.ravel()[bad]), float(pc.ravel()[bad]))
    row_x = -pairwise_sum(pc * np.cos(theta - spec.phi), axis=1) * h_t
    row_z = pairwise_sum(pc * np.sin(theta - spec.phi), axis=1) * h_t
    return row_x, row_z


def _ray_lengths_raw(spec: CavitySpec, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Raw-intersection ray lengths; r has shape (n,), theta (n, m)."""
    cphi = math.cos(spec.phi)
    sphi = math.sin(spec.phi)
    qx = -r * cphi
    qz = -spec.a - r * sphi
    d3x, d3z = cphi, -sphi
    num = qx * d3z - qz * d3x
    ux = np.cos(spec.phi - theta)
    uz = np.sin(spec.phi - theta)
    den = ux * d3z - uz * d3x
    return num[:, None] / den


def riemann_forces(spec: CavitySpec, n_r: int, n_theta: int) -> ForceResult:
    """Double midpoint sum for both force components.

    For each of ``n_r`` radial midpoints the fan is sampled at ``n_theta``
    angular midpoints of its own window; each direction contributes the
    parallel-plate pressure of its raw-intersection ray length.  All
    reductions run through the fixed pairwise tree, and rows are processed
    in chunks purely for memory locality -- chunking cannot change the sum.
    """
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


def verify_suite(spec: CavitySpec) -> list[OracleReport]:
    """Run every primary-vs-oracle comparison on one cavity.

    Checks, in order: limit angles on a 17-point r grid (absolute radians),
    ray lengths on a (r, theta) grid (relative), both components of
    :func:`fan_integrals` (reported as ``inner_integral_z`` and
    ``inner_integral_x``) against adaptive quadrature of the raw integrand
    (relative), and both total forces against a 1024x1024 Riemann sum
    (relative; the x force is measured against the z scale where it
    vanishes).  Failures are reported in the returned list, never raised.
    The oracle keeps its own literal prefactor, so a corrupted
    :data:`trapcav.kernels.K` moves only the primary forces and fails the
    force checks.
    """
    # primary-path imports are confined here: this function is the
    # comparison harness, the oracle computations above stay independent
    from .forces import total_forces
    from .geometry import limit_angles, ray_length, validate
    from .kernels import fan_integrals
    from .quadrature import integrate_adaptive

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
        ("inner_integral_z", 1, np.sin),
        ("inner_integral_x", 0, np.cos),
    ):
        worst = (0.0, 0.0, 0.0)
        for frac in (0.0, 0.5, 15 / 16):
            r = spec.R * frac
            window = limit_angles(spec, r)
            value = fan_integrals(window, spec.phi)[component]

            def raw(theta: np.ndarray) -> np.ndarray:
                return np.sin(theta - 2.0 * spec.phi) ** 4 * trig(theta - spec.phi)

            # abs_tol matters: the x integrand is antisymmetric over the
            # parallel-plate window, so its true integral is 0 and a pure
            # relative target is unreachable; the windows are O(1) wide
            quad = integrate_adaptive(
                raw, window.theta1, window.theta2, rel_tol=1e-12, abs_tol=1e-13
            )
            # both values can be ~0 (antisymmetric x integrand); the window
            # width bounds the integral and gives the comparison a scale
            floor = 0.1 * window.width
            dev = abs(value - quad.value) / max(abs(value), abs(quad.value), floor)
            if dev >= worst[0]:
                worst = (dev, value, quad.value)
        reports.append(_report(name, worst[1], worst[2], worst[0], 1e-10))

    prim_f = total_forces(spec, 1e-9)
    orac_f = riemann_forces(spec, 1024, 1024)
    dev_z = abs(prim_f.f_z - orac_f.f_z) / abs(orac_f.f_z)
    reports.append(_report("total_force_z", prim_f.f_z, orac_f.f_z, dev_z, 1e-3))
    scale_x = max(abs(orac_f.f_x), abs(orac_f.f_z))
    dev_x = abs(prim_f.f_x - orac_f.f_x) / scale_x
    reports.append(_report("total_force_x", prim_f.f_x, orac_f.f_x, dev_x, 1e-3))
    return reports
