import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    AngleWindow,
    CavitySpec,
    InvalidCavity,
    NonFiniteSample,
    NonPositiveGap,
    OutOfRange,
    Units,
    classical_casimir_pressure,
    fan_integrals,
    limit_angles,
    pressure_prefactor,
    pressure_profile,
    specific_pressures,
)
from trapcav.geometry import WingParams
from trapcav.kernels import wing_pressures
import trapcav.geometry
import trapcav.kernels
import trapcav.spec

# hbar c pi^2 / 240 with CODATA hbar = 1.054571817e-34, c = 2.99792458e8,
# written with enough digits that == compares the bits
K_EXPECTED = 1.3001257724477533e-27

# -K / a^4 at a = 400 nm
PRESSURE_400NM = -0.05078616298624037

PARALLEL = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)


def test_prefactor_constant():
    # bit for bit the product hbar * c * pi^2 / 240, in that order
    assert trapcav.kernels.K == K_EXPECTED
    assert trapcav.kernels.K == 1.054571817e-34 * 2.99792458e8 * math.pi**2 / 240.0


def test_prefactor_by_units():
    assert pressure_prefactor(PARALLEL) == 1.0
    si = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=0.0)
    assert pressure_prefactor(si) == trapcav.kernels.K


def test_energy_and_pressure_values():
    assert math.isclose(classical_casimir_pressure(4e-7), PRESSURE_400NM, rel_tol=1e-12)
    # reduced form: unit prefactor, unit gap
    assert classical_casimir_pressure(1.0, k=1.0) == -1.0


@pytest.mark.parametrize("bad", [0.0, -1e-9, -3.0])
def test_energy_rejects_non_positive_gap(bad):
    with pytest.raises(NonPositiveGap):
        classical_casimir_pressure(bad)


def test_inner_integral_full_fan():
    """Full half-space fan: compression picks up the 16/15 enhancement."""
    full = AngleWindow(0.0, math.pi)
    assert math.isclose(fan_integrals(full, 0.0)[1], 16.0 / 15.0, rel_tol=1e-14)
    assert abs(fan_integrals(full, 0.0)[0]) < 1e-12


def test_inner_integral_half_fan():
    half = AngleWindow(0.0, math.pi / 2)
    assert math.isclose(fan_integrals(half, 0.0)[0], 0.2, rel_tol=1e-14)
    assert math.isclose(fan_integrals(half, 0.0)[1], 8.0 / 15.0, rel_tol=1e-14)
    back = AngleWindow(math.pi / 2, math.pi)
    assert math.isclose(fan_integrals(back, 0.0)[0], -0.2, rel_tol=1e-14)


def test_expulsion_to_compression_ratio():
    half = AngleWindow(0.0, math.pi / 2)
    full = AngleWindow(0.0, math.pi)
    ratio = abs(fan_integrals(half, 0.0)[0]) / fan_integrals(full, 0.0)[1]
    assert math.isclose(ratio, 3.0 / 16.0, rel_tol=1e-14)


def test_specific_pressures_wide_plates():
    # deep in the cavity the compression approaches the enhanced value
    wide = CavitySpec(a=1.0, R=1e4, L=1.0, phi=0.0, units=Units.REDUCED)
    sample = specific_pressures(wide, 5e3)
    assert math.isclose(sample.p_z, -16.0 / 15.0, rel_tol=1e-3)
    assert sample.r == 5e3


def test_specific_pressures_signs_at_phi_zero():
    # expulsion flips sign across the midpoint, compression stays negative
    near = specific_pressures(PARALLEL, 2.0)
    far = specific_pressures(PARALLEL, 8.0)
    assert near.p_x > 0.0 > far.p_x
    assert near.p_z < 0.0 and far.p_z < 0.0


def test_specific_pressures_validates():
    with pytest.raises(InvalidCavity):
        specific_pressures(CavitySpec(a=0.0, R=1.0, L=1.0, phi=0.0), 0.5)


def test_specific_pressures_refuse_pressures_that_are_not_finite():
    # K / a^4 overflows at a = 1e-90 m; one sample and a profile raise alike
    spec = CavitySpec(a=1e-90, R=4e-90, L=1.0, phi=math.radians(5.0))
    with pytest.raises(NonFiniteSample) as one:
        specific_pressures(spec, 0.0)
    with pytest.raises(NonFiniteSample) as profile:
        pressure_profile(spec, 3)
    assert str(one.value) == str(profile.value) == "pressure p_x is inf at r=0.0"
    assert one.value.x == 0.0 and one.value.value == math.inf


def test_specific_pressures_uses_constants(monkeypatch):
    # K has one definition, in spec, which geometry and the kernel
    # re-export, and the kernel reads it per call
    assert trapcav.kernels.K is trapcav.geometry.K is trapcav.spec.K
    assert trapcav.kernels.pressure_prefactor is trapcav.spec.pressure_prefactor
    si = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=0.0)
    base = specific_pressures(si, 2e-6)
    monkeypatch.setattr(trapcav.spec, "K", 2 * trapcav.spec.K)
    doubled = specific_pressures(si, 2e-6)
    assert math.isclose(doubled.p_z, 2 * base.p_z, rel_tol=1e-15)


def test_pressures_match_mpmath():
    # the kernel against 60-digit arithmetic at the same float inputs: the
    # limit angles from the raw corner vectors, the fan integrals from the
    # primitives F5 and G5; a window 1e-20 wide (R/a 1e-20) costs the
    # reference about 20 of its digits and the kernel none, because the
    # kernel takes the width from one atan2
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60

    def primitives(u):
        c, s = mp.cos(u), mp.sin(u)
        return -c + 2 * c**3 / 3 - c**5 / 5, s**5 / 5

    worst_z = worst_x = 0.0
    for ratio in (1e-20, 1e-9, 1e-6, 1e-4, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5, 1e6, 1e9, 1e12, 1e15):
        for phi in (0.0, 1e-6, 1e-3, 0.1, 0.5, 0.78):
            spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
            R = spec.R
            c, s = mp.cos(phi), mp.sin(phi)
            corners = ((mp.mpf(R) * c, -mp.mpf(R) * s - 1), (0, mp.mpf(-1)))
            for ri in (0.0, 1e-3 * R, 0.3 * R, 0.5 * R, R - 1e-4 * R, R - 1e-7 * R, R):
                p = specific_pressures(spec, ri)
                wx, wz = mp.mpf(ri) * c, mp.mpf(ri) * s
                theta = [
                    mp.atan2(s * (mx - wx) - c * (mz - wz), c * (mx - wx) + s * (mz - wz))
                    for mx, mz in corners
                ]
                (f1, g1), (f2, g2) = (primitives(t - 2 * mp.mpf(phi)) for t in theta)
                scale = (c * (1 + 2 * mp.mpf(ri) * s)) ** 4
                ref_x = (c * (g2 - g1) - s * (f2 - f1)) / scale
                ref_z = -(c * (f2 - f1) + s * (g2 - g1)) / scale
                worst_z = max(worst_z, float(abs((p.p_z - ref_z) / ref_z)))
                worst_x = max(worst_x, float(abs((p.p_x - ref_x) / ref_z)))
    assert worst_z <= 1e-13 and worst_x <= 1e-13


def test_pressure_arrays_check_every_call():
    with pytest.raises(InvalidCavity):
        specific_pressures(CavitySpec(a=0.0, R=1.0, L=1.0, phi=0.0), 0.5)
    # the kernel checks r itself, and raises what limit_angles raises
    for r in (10.5, math.nan, -0.5, math.nextafter(PARALLEL.R, math.inf)):
        with pytest.raises(OutOfRange) as expected:
            limit_angles(PARALLEL, r)
        for call in (specific_pressures, lambda spec, r: wing_pressures(WingParams.of(spec), 1.0, r)):
            with pytest.raises(OutOfRange) as err:
                call(PARALLEL, r)
            assert str(err.value) == str(expected.value)
            assert err.value.value is r
    # the limit angles of a wing far shorter than the gap coincide, but the
    # window's width does not vanish: both answer, and the kernel still
    # gives the pressure
    tiny = CavitySpec(a=1.0, R=1e-20, L=1.0, phi=0.3)
    window = limit_angles(tiny, tiny.R)
    assert window.theta1 == window.theta2
    assert specific_pressures(tiny, tiny.R).p_z < 0.0


@given(
    phi=st.floats(0.0, math.pi / 4 - 1e-6),
    t1=st.floats(0.0, math.pi),
    t2=st.floats(0.0, math.pi),
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=200)
def test_inner_integrals_are_additive(phi, t1, t2, split):
    lo, hi = min(t1, t2), max(t1, t2)
    if hi - lo < 1e-9:
        hi = lo + 1e-9
    mid = lo + split * (hi - lo)
    whole = fan_integrals(AngleWindow(lo, hi), phi)
    left = fan_integrals(AngleWindow(lo, mid), phi)
    right = fan_integrals(AngleWindow(mid, hi), phi)
    for w, l, r in zip(whole, left, right):
        assert math.isclose(w, l + r, rel_tol=1e-12, abs_tol=1e-14)
