"""The closed-form forces against an 80-digit evaluation of the three-ray form.

The reference is the three-ray form written out in mpmath, with nothing
shared with the package: it comes from a corner substitution in the fan
angle, not from the swap of r and t that the package's closed form and
the force oracle rest on.  The cancellation between the rays costs the
reference digits on short wings, about (a / R)^4 in f_x; at 80 digits at
least 20 remain down to R/a of about 1e-15, and at 50 the R/a = 1e-9 row
once missed.  It is pinned to the exact parallel-plate law and to a
quadrature of the pressure along the wing, so the gate below checks the
float64 closed form and the scaling to SI units against an independent
value.
"""

import math
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import CavitySpec, TrapcavError, Units, pressure_prefactor, total_forces

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 80


def _primitives(y, x, C, S):
    # I_F and I_G at the ray (y, x) of the lower-wing frame
    h = mp.sqrt(x * x + y * y)
    sg, ka = y / h, x / h
    i_f = (
        8 * S**2
        + sg**2 * (24 * C**2 - 12 * S**2)
        + 3 * sg**4 * (S**2 - 4 * C**2)
        + 3 * sg**6 * (S**2 - C**2)
        + 30 * C * S * sg * ka * (1 - sg**2 - ka**4 / 5)
    ) / (45 * sg**3)
    i_g = (C**2 * ka * (ka**2 - 3) + 2 * C * S * sg**3 - S**2 * ka**3) / 15
    return i_f, i_g


def reference_forces(rho, phi):
    """Reduced (f_x, f_z) of one wing, f a^3 / (K L), at 80 digits."""
    rho, phi = mp.mpf(rho), mp.mpf(phi)
    c, s, C, S = mp.cos(phi), mp.sin(phi), mp.cos(2 * phi), mp.sin(2 * phi)
    w = 1 + 2 * rho * s
    rays = [
        _primitives(c + rho * S, s - rho * C, C, S),
        _primitives(c, s, C, S),
        _primitives(c, rho + s, C, S),
    ]
    i_x = [c * g - s * f for f, g in rays]
    i_z = [c * f + s * g for f, g in rays]
    f_x = ((i_x[0] - i_x[1]) - (i_x[1] - i_x[2]) / w**3) / c**3
    f_z = -((i_z[0] - i_z[1]) - (i_z[1] - i_z[2]) / w**3) / c**3
    return f_x, f_z


def parallel_plate_law(rho):
    # the exact f_z a^3 / (K L) at phi = 0
    rho = mp.mpf(rho)
    q = 1 + rho**2
    return -2 * rho**2 * (8 * rho**4 + 20 * rho**2 + 15) / (15 * q ** mp.mpf(2.5)) + mp.mpf(2) / 5 * (
        1 - q ** mp.mpf(-2.5)
    )


def reduced_pressures(rho, phi, r):
    # (p_x, p_z) a^4 / K at r: the fan integral of the primitives F5 and G5
    # between the rays to both ends of the lower wing, over s(r)^4
    rho, phi, r = mp.mpf(rho), mp.mpf(phi), mp.mpf(r)
    c, s = mp.cos(phi), mp.sin(phi)
    wx, wz = r * c, r * s
    corners = ((rho * c, -rho * s - 1), (0, mp.mpf(-1)))
    theta = [mp.atan2(s * (mx - wx) - c * (mz - wz), c * (mx - wx) + s * (mz - wz)) for mx, mz in corners]

    def primitives(u):
        cu, su = mp.cos(u), mp.sin(u)
        return -cu + 2 * cu**3 / 3 - cu**5 / 5, su**5 / 5

    (f1, g1), (f2, g2) = (primitives(t - 2 * phi) for t in theta)
    scale = (c * (1 + 2 * r * s)) ** 4
    return (c * (g2 - g1) - s * (f2 - f1)) / scale, -(c * (f2 - f1) + s * (g2 - g1)) / scale


@pytest.mark.parametrize("rho", [1, 1000])
def test_reference_matches_the_parallel_plate_law(rho):
    f_x, f_z = reference_forces(rho, 0)
    assert f_x == 0
    assert abs(f_z - parallel_plate_law(rho)) <= mp.mpf(10) ** -45 * abs(f_z)


@pytest.mark.parametrize("rho,phi", [(0.3, 0.5), (4, 0.1), (40, 0.78)])
def test_reference_matches_quadrature_of_the_pressure(rho, phi):
    # mpmath's tanh-sinh on panels that meet one gap from either wing end
    edges = sorted({0, min(1, rho / 2), max(rho - 1, rho / 2), rho})
    with mp.workdps(30):
        f_x = mp.quad(lambda r: reduced_pressures(rho, phi, r)[0], edges)
        f_z = mp.quad(lambda r: reduced_pressures(rho, phi, r)[1], edges)
    ref_x, ref_z = reference_forces(rho, phi)
    assert abs(f_x - ref_x) <= mp.mpf(10) ** -25 * abs(ref_z)
    assert abs(f_z - ref_z) <= mp.mpf(10) ** -25 * abs(ref_z)


# short wings and their upper float neighbours: R/a 0.004 and 0.05, where
# the short-wing rule once switched orders, R/a 0.02 and 0.13 between them,
# and R/a 1/4 and 0.26 around the old switch to the three-ray form
SHORT_WING_RATIOS = [0.004, 0.02, 0.05, 0.13]
GATE_RATIOS = sorted(
    {1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.2, 0.25, 0.26, 1.0, 40.0, 1e3, 1e6}
    | set(SHORT_WING_RATIOS)
    | {math.nextafter(ratio, 1.0) for ratio in SHORT_WING_RATIOS}
)
GATE_PHIS = [0.0, 1e-8, 1e-4, 1e-2, 0.3, 0.78]


@pytest.mark.parametrize("ratio", GATE_RATIOS)
def test_total_forces_meet_the_50_digit_gate(ratio):
    # the closed form in both unit systems; the name keeps the reference's
    # first precision: within 1e-13 |f_z| of the reference, within its own
    # error bounds, and converged at rel_tol 1e-13; f_x keeps its own
    # digits too, on every wing: within 16 eps |f_x|
    for phi in GATE_PHIS:
        ref_x, ref_z = reference_forces(ratio, phi)
        for spec in (
            CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED),
            CavitySpec(a=4e-7, R=ratio * 4e-7, L=2e-3, phi=phi),
        ):
            fr = total_forces(spec, rel_tol=1e-13)
            scale = mp.mpf(pressure_prefactor(spec)) * mp.mpf(spec.L) / mp.mpf(spec.a) ** 3
            miss_x = abs(fr.f_x - ref_x * scale)
            miss_z = abs(fr.f_z - ref_z * scale)
            assert max(miss_x, miss_z) <= 1e-13 * abs(ref_z * scale), (ratio, phi, spec.units)
            assert miss_x <= fr.err_x and miss_z <= fr.err_z, (ratio, phi, spec.units)
            assert miss_x <= 16 * sys.float_info.epsilon * abs(ref_x * scale), (ratio, phi, spec.units)
            assert fr.converged, (ratio, phi, spec.units)


@given(
    exponent=st.floats(-300.0, 300.0),
    phi=st.floats(0.0, math.pi / 4, exclude_max=True),
    gap=st.one_of(st.none(), st.floats(-130.0, 5.0)),
)
@settings(max_examples=300, deadline=None)
def test_every_ratio_gives_a_finite_force_or_a_typed_error(exponent, phi, gap):
    # reduced units, or SI with gaps from 1e-130 m, where K L / a^3 overflows
    if gap is None:
        spec = CavitySpec(a=1.0, R=10.0**exponent, L=1.0, phi=phi, units=Units.REDUCED)
    else:
        a = 10.0**gap
        spec = CavitySpec(a=a, R=a * 10.0**exponent, L=1.0, phi=phi)
    try:
        fr = total_forces(spec)
    except TrapcavError:
        return
    assert all(math.isfinite(v) for v in (fr.f_x, fr.f_z, fr.err_x, fr.err_z))
    assert fr.f_z < 0.0
