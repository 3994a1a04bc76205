import math
import sys

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from trapcav import (
    CavitySpec,
    InvalidCavity,
    NumericDegeneracy,
    OutOfRange,
    PHI_MAX,
    Units,
    limit_angles,
    ray_length,
    s_factor,
    validate,
)
from trapcav.geometry import _ray

REDUCED_10 = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)

# atan(1/10) and atan(1/5), correctly rounded: apex limit angles for
# a=1, R=10 parallel plates at r=0 and r=5
THETA1_R0 = 0.09966865249116202
THETA1_R5 = 0.19739555984988075


def spec_strategy():
    # SI units: builds would otherwise draw reduced units, which need a = 1
    return st.builds(
        CavitySpec,
        a=st.floats(0.05, 5.0),
        R=st.floats(0.1, 50.0),
        L=st.floats(0.1, 10.0),
        phi=st.floats(0.0, PHI_MAX - 1e-6),
        units=st.just(Units.SI),
    )


def test_validate_accepts_si_and_reduced():
    validate(CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=0.1))
    validate(REDUCED_10)
    # the edges of each chained comparison: the smallest subnormal gap,
    # the largest float wing, a negative-zero angle and the float just
    # below pi/4
    validate(CavitySpec(a=5e-324, R=1.7976931348623157e308, L=1.0, phi=-0.0))
    validate(CavitySpec(a=1.0, R=4.0, L=1.0, phi=math.nextafter(PHI_MAX, 0.0), units=Units.REDUCED))


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("a", dict(a=0.0)),
        ("a", dict(a=-1.0)),
        ("a", dict(a=math.nan)),
        ("R", dict(R=0.0)),
        ("R", dict(R=math.inf)),
        ("L", dict(L=0.0)),
        ("phi", dict(phi=-0.01)),
        ("phi", dict(phi=PHI_MAX)),
        ("phi", dict(phi=1.0)),
    ]
    # one chained comparison per field must reject NaN and both infinities
    + [
        (field, {field: value})
        for field in ("a", "R", "L", "phi")
        for value in (math.inf, -math.inf, math.nan)
        if (field, value) not in (("a", math.nan), ("R", math.inf))
    ],
)
def test_validate_rejects(field, kwargs):
    base = dict(a=1.0, R=10.0, L=1.0, phi=0.0)
    base.update(kwargs)
    with pytest.raises(InvalidCavity) as err:
        validate(CavitySpec(**base))
    assert err.value.field == field


def test_validate_reduced_requires_unit_gap():
    with pytest.raises(InvalidCavity) as err:
        validate(CavitySpec(a=2.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED))
    assert err.value.field == "a"


def test_validate_rejects_bad_units_type():
    with pytest.raises(InvalidCavity):
        validate(CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units="parsecs"))


@pytest.mark.parametrize("field", ["a", "R", "L", "phi"])
def test_validate_refuses_a_str_field(field):
    spec = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0)._replace(**{field: "1.0"})
    with pytest.raises(TypeError):
        validate(spec)


@pytest.mark.parametrize(
    "spec",
    [
        CavitySpec(a=-1.0, R=4.0, L=1.0, phi=0.1),
        CavitySpec(a=1.0, R=4.0, L=1.0, phi=1.0),
        CavitySpec(a=1.0, R=4.0, L=1.0, phi=0.1, units="si"),
    ],
)
def test_public_geometry_functions_validate_the_spec(spec):
    # unchecked, these return a negative s, a negative ray length, or a
    # window for a fan that folds onto the wing
    for call in (
        lambda: limit_angles(spec, 1.0),
        lambda: s_factor(spec, 1.0),
        lambda: ray_length(spec, 1.0, 2.0),
    ):
        with pytest.raises(InvalidCavity):
            call()


def test_limit_angles_parallel_plates():
    w = limit_angles(REDUCED_10, 0.0)
    assert math.isclose(w.theta1, THETA1_R0, rel_tol=1e-15)
    assert w.theta2 == math.pi / 2
    w5 = limit_angles(REDUCED_10, 5.0)
    assert math.isclose(w5.theta1, THETA1_R5, rel_tol=1e-15)
    assert math.isclose(w5.theta2, math.pi - THETA1_R5, rel_tol=1e-15)


def test_limit_angles_edge_identity():
    """The fan edge aimed at the opposite corner sits at pi/2 + phi."""
    for phi in (0.0, math.radians(1.0), math.radians(5.0), math.radians(20.0)):
        s = CavitySpec(a=1.0, R=10.0, L=1.0, phi=phi, units=Units.REDUCED)
        target = math.pi / 2 + phi
        assert abs(limit_angles(s, s.R).theta1 - target) < 1e-14
        assert abs(limit_angles(s, 0.0).theta2 - target) < 1e-14


def test_limit_angles_out_of_range():
    with pytest.raises(OutOfRange):
        limit_angles(REDUCED_10, -0.5)


def test_limit_angles_match_mpmath():
    # the angles between the wing direction and the raw corner vectors,
    # in 40-digit arithmetic at the same float inputs
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    worst = 0.0
    for phi in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.785):
        for ratio in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
            spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
            c, s = mp.cos(phi), mp.sin(phi)
            for frac in (0.0, 1e-7, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0):
                r = spec.R * frac
                w = limit_angles(spec, r)
                p = (mp.mpf(r) * c, mp.mpf(r) * s)
                corners = ((mp.mpf(ratio) * c, -mp.mpf(ratio) * s - 1), (0, mp.mpf(-1)))
                for theta, (mx, mz) in zip((w.theta1, w.theta2), corners):
                    qx, qz = mx - p[0], mz - p[1]
                    ref = mp.atan2(s * qx - c * qz, c * qx + s * qz)
                    worst = max(worst, abs(float(mp.mpf(theta) - ref)))
    assert worst <= 2e-15


@pytest.mark.parametrize("gap", [None, 3e-7])
def test_corner_ray_matches_mpmath(gap):
    # the ray from P(r) to Q(t) against its raw vector d = Q(t) - P(r) in
    # 50-digit arithmetic: with e = (cos phi, -sin phi) the lower-wing
    # direction, its sine is -(e x d) / |d|, its cosine e.d / |d| and its
    # length |d|; the upper wing's distance sigma from the lower one is s(r)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    eps = sys.float_info.epsilon
    worst_angle = worst_h = 0.0
    for ratio in (1e-20, 1e-9, 1e-3, 0.25, 1.0, 4.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e20, 1e100, 1e300):
        for phi in (0.0, 1e-8, 0.1, 0.5, 0.785):
            if gap is None:
                spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
            else:
                spec = CavitySpec(a=gap, R=gap * ratio, L=1.0, phi=phi)
            a, R = spec.a, spec.R
            c, s = mp.cos(phi), mp.sin(phi)
            for frac in (0.0, 1e-7, 0.3, 1.0 - 1e-7, 1.0):
                r = R * frac
                for t in (0.0, R):
                    sigma, x, h = _ray(a, math.cos(phi), math.sin(phi), r, t)
                    assert sigma == s_factor(spec, r)
                    dx = (mp.mpf(t) - r) * c
                    dz = -a - (mp.mpf(t) + r) * s
                    length = mp.hypot(dx, dz)
                    sin_u, cos_u = -(c * dz + s * dx) / length, (c * dx - s * dz) / length
                    worst_angle = max(worst_angle, abs(sigma / h - sin_u), abs(x / h - cos_u))
                    worst_h = max(worst_h, abs(h / length - 1))
    assert worst_angle <= 4 * eps and worst_h <= 4 * eps, (worst_angle / eps, worst_h / eps)


def test_window_ordering_across_radius():
    for s in (REDUCED_10, CavitySpec(a=1.0, R=3.0, L=1.0, phi=0.6, units=Units.REDUCED)):
        for k in range(101):
            w = limit_angles(s, s.R * k / 100)
            assert 2 * s.phi < w.theta1 < w.theta2 <= math.pi
            assert w.width > 0.0


def test_s_factor_parallel_plates_is_gap():
    assert s_factor(REDUCED_10, 0.0) == 1.0
    assert s_factor(REDUCED_10, 7.3) == 1.0


@pytest.mark.parametrize("r", [-1e-9, 10.000000001, 1e6])
def test_s_factor_out_of_range(r):
    with pytest.raises(OutOfRange) as err:
        s_factor(REDUCED_10, r)
    assert err.value.name == "r"
    assert err.value.value == r


def test_s_factor_matches_closed_form():
    s = CavitySpec(a=2.0, R=5.0, L=1.0, phi=0.4)
    for r in (0.0, 1.0, 2.5, 5.0):
        expect = math.cos(0.4) * (2.0 + 2.0 * r * math.sin(0.4))
        assert math.isclose(s_factor(s, r), expect, rel_tol=1e-13)
    # long, nearly parallel wing at its far end; the reference is
    # cos(phi) (a + 2 R sin(phi)) in 40-digit mpmath at the float phi
    far = CavitySpec(a=1.0, R=1e6, L=1.0, phi=1e-6)
    expect = 2.999999999998166576162890626998776812072
    assert math.isclose(s_factor(far, far.R), expect, rel_tol=1e-15)


def test_ray_length_straight_down():
    # phi=0, r=0: the ray at theta=pi/2 crosses the gap perpendicularly
    assert ray_length(REDUCED_10, 0.0, math.pi / 2) == 1.0


def test_ray_length_rejects_directions_outside_fan():
    s = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.2, units=Units.REDUCED)
    for theta in (2 * s.phi, 2 * s.phi - 0.1, 0.0):
        with pytest.raises(NumericDegeneracy):
            ray_length(s, 1.0, theta)


def test_ray_length_rejects_a_nan_direction():
    with pytest.raises(NumericDegeneracy):
        ray_length(REDUCED_10, 1.0, math.nan)


TINY = CavitySpec(a=1.0, R=1e-20, L=1.0, phi=0.3)


def tiny_wing_angles(r):
    # the limit angles of TINY at r, in 40-digit arithmetic at the same
    # float inputs: the angles between the wing direction and the raw
    # corner vectors, which differ by about 1e-20
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    c, s = mp.cos(TINY.phi), mp.sin(TINY.phi)
    px, pz = mp.mpf(r) * c, mp.mpf(r) * s
    angles = []
    for mx, mz in ((mp.mpf(TINY.R) * c, -mp.mpf(TINY.R) * s - 1), (0, mp.mpf(-1))):
        qx, qz = mx - px, mz - pz
        angles.append(mp.atan2(s * qx - c * qz, c * qx + s * qz))
    return angles


def test_degenerate_fan_guard():
    # at the far end of a wing far shorter than the gap both corners lie
    # in the same direction, pi/2 + phi, to within rounding: the window is
    # narrower than an ulp of theta1, and both angles round to one float
    w = limit_angles(TINY, TINY.R)
    assert w.theta1 == w.theta2 and w.width == 0.0
    for theta, ref in zip(w, tiny_wing_angles(TINY.R)):
        assert abs(theta - ref) <= 2e-15


def test_arrays_name_the_first_bad_coordinate():
    # the range check is one chained comparison, which NaN fails too
    for f in (limit_angles, s_factor):
        with pytest.raises(OutOfRange) as err:
            f(REDUCED_10, math.nan)
        assert math.isnan(err.value.value)
    # a wing far shorter than the gap answers at each end, and the error
    # names the r given just past it
    for r in (0.0, TINY.R):
        w = limit_angles(TINY, r)
        assert w.theta1 == w.theta2
        for theta, ref in zip(w, tiny_wing_angles(r)):
            assert abs(theta - ref) <= 2e-15
    past = math.nextafter(TINY.R, 1.0)
    with pytest.raises(OutOfRange) as err:
        limit_angles(TINY, past)
    assert err.value.value == past


@given(spec=spec_strategy(), frac=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_window_invariants(spec, frac):
    r = spec.R * frac
    w = limit_angles(spec, r)
    assert 2 * spec.phi < w.theta1 < w.theta2 <= math.pi


@given(spec=spec_strategy(), frac=st.floats(0.0, 1.0), t=st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_ray_length_round_trip(spec, frac, t):
    """b * sin(theta - 2 phi) recovers the strip scale s."""
    r = spec.R * frac
    w = limit_angles(spec, r)
    theta = w.theta1 + t * w.width
    assume(theta - 2 * spec.phi > 1e-6)
    b = ray_length(spec, r, theta)
    assert b > 0.0
    s = s_factor(spec, r)
    assert math.isclose(b * math.sin(theta - 2 * spec.phi), s, rel_tol=1e-11)
