from fractions import Fraction
import math
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    AngleWindow,
    CavitySpec,
    InvalidCavity,
    NonFiniteSample,
    NumericDegeneracy,
    OutOfRange,
    Units,
    limit_angles,
    ray_length,
    total_forces,
)
from trapcav.oracle import (
    OracleReport,
    limit_angles_vector,
    ray_length_intersection,
    riemann_forces,
    verify_suite,
)
import trapcav.forces
import trapcav.geometry
import trapcav.kernels
import trapcav.oracle
import trapcav.spec

REDUCED = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)
SI_THIN = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=math.radians(1.0))

CHECK_NAMES = [
    "limit_angles",
    "ray_length",
    "inner_integral_z",
    "inner_integral_x",
    "total_force_z",
    "total_force_x",
]


def test_vector_angles_match_closed_form():
    for deg in (0.0, 1.0, 5.0, 20.0):
        spec = REDUCED._replace(phi=math.radians(deg))
        for k in range(17):
            r = spec.R * k / 16
            closed = limit_angles(spec, r)
            vector = limit_angles_vector(spec, r)
            assert abs(closed.theta1 - vector.theta1) < 1e-12
            assert abs(closed.theta2 - vector.theta2) < 1e-12


def test_vector_angles_apex_point():
    # r = 0 uses the wing direction itself; straight-down chord at phi = 0
    w = limit_angles_vector(REDUCED, 0.0)
    assert abs(w.theta2 - math.pi / 2) < 1e-15
    with pytest.raises(OutOfRange):
        limit_angles_vector(REDUCED, -1.0)


def test_intersection_ray_matches_closed_form():
    spec = REDUCED._replace(phi=math.radians(5.0))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        r = spec.R * frac
        w = limit_angles(spec, r)
        for j in range(7):
            theta = w.theta1 + w.width * (j + 0.5) / 7
            closed = ray_length(spec, r, theta)
            raw = ray_length_intersection(spec, r, theta)
            assert math.isclose(closed, raw, rel_tol=1e-12)


@pytest.mark.parametrize("r", [-1.0, 20.0, math.nan, math.inf])
def test_ray_lengths_refuse_a_point_off_the_wing(r):
    # the lower wing's line still meets the ray from such a point, at a
    # length the primary path never gives
    for length in (ray_length, ray_length_intersection):
        with pytest.raises(OutOfRange):
            length(REDUCED, r, 1.5)


def test_intersection_refuses_a_ray_parallel_to_the_lower_wing():
    with pytest.raises(NumericDegeneracy):
        ray_length_intersection(REDUCED, 1.0, 0.0)


def fraction_limit_angles(spec: CavitySpec, r: float) -> AngleWindow:
    # the reference: the same raw vectors on Fraction values of the floats,
    # so that every product is exact and cross and dot each round once
    cphi, sphi, a, R, r = map(Fraction, (math.cos(spec.phi), math.sin(spec.phi), spec.a, spec.R, r))
    angles = []
    for tx, tz in ((R * cphi, -R * sphi - a), (0, -a)):
        qx, qz = tx - r * cphi, tz - r * sphi
        angles.append(math.atan2(sphi * qx - cphi * qz, cphi * qx + sphi * qz))
    return AngleWindow(*angles)


def fraction_ray_length(spec: CavitySpec, r: float, theta: float) -> float:
    # the reference: P + b u meets the lower wing's line, solved on
    # Fractions, so that only b rounds; a length is a finite positive float
    u = spec.phi - theta
    try:
        floats = (math.cos(spec.phi), math.sin(spec.phi), spec.a, r, math.cos(u), math.sin(u))
        cphi, sphi, a, r, ux, uz = map(Fraction, floats)
        b = float((r * cphi * sphi + (a + r * sphi) * cphi) / (-ux * sphi - uz * cphi))
    except (ArithmeticError, ValueError):
        b = math.nan
    if not 0.0 < b < math.inf:
        raise NumericDegeneracy("no finite ray length")
    return b


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as err:
        return type(err)


def test_integer_geometry_matches_fraction_arithmetic():
    # a seeded draw over R/a 1e-15..1e300, phi at 0, 1e-8, uniform and the
    # float below pi/4, both unit systems and r at 0, R/3, R and uniform;
    # the rays run through the window's midpoints, along the lower wing at
    # phi = 0 (theta = 0), along the upper wing (theta = phi) and at NaN
    rng = random.Random(20120)
    calls = 0
    for _ in range(200):
        units = rng.choice([Units.REDUCED, Units.SI])
        a = 1.0 if units is Units.REDUCED else 10.0 ** rng.uniform(-9.0, -5.0)
        R = a * 10.0 ** rng.uniform(-15.0, 300.0)
        phi = rng.choice([0.0, 1e-8, rng.uniform(0.0, math.pi / 4), math.nextafter(math.pi / 4, 0.0)])
        spec = CavitySpec(a=a, R=R, L=1.0, phi=phi, units=units)
        for r in (0.0, R / 3, R, rng.uniform(0.0, R)):
            # repr tells every two floats apart, 0.0 and -0.0 too
            window = outcome(fraction_limit_angles, spec, r)
            assert repr(outcome(limit_angles_vector, spec, r)) == repr(window), (spec, r)
            thetas = [0.0, phi, math.nan]
            if isinstance(window, AngleWindow):
                thetas += [window.theta1 + window.width * (j + 0.5) / 3 for j in range(3)]
            for theta in thetas:
                expected = repr(outcome(fraction_ray_length, spec, r, theta))
                assert repr(outcome(ray_length_intersection, spec, r, theta)) == expected, (spec, r, theta)
            calls += 1 + len(thetas)
    assert calls > 4000


def test_ray_length_pair_refuses_alike():
    # a seeded draw over R/a 1e-15..1e300, phi at 0, 1e-8, uniform and the
    # float below pi/4, both unit systems and r at 0, R/3, R and uniform;
    # the rays run through the oracle window's ends and midpoint, along
    # the upper wing (theta = phi), at 0, -1, 3.5, NaN and both infinities.
    # Both functions answer, or both raise the same error, NumericDegeneracy
    # where theta is not finite; inside the window, where no ray runs near
    # parallel to the lower wing, they also agree as verify's check demands
    rng = random.Random(2012)
    pairs = 0
    for _ in range(600):
        units = rng.choice([Units.REDUCED, Units.SI])
        a = 1.0 if units is Units.REDUCED else 10.0 ** rng.uniform(-9.0, -5.0)
        R = a * 10.0 ** rng.uniform(-15.0, 300.0)
        phi = rng.choice([0.0, 1e-8, rng.uniform(0.0, math.pi / 4), math.nextafter(math.pi / 4, 0.0)])
        spec = CavitySpec(a=a, R=R, L=1.0, phi=phi, units=units)
        for r in (0.0, R / 3, R, rng.uniform(0.0, R)):
            window = outcome(limit_angles_vector, spec, r)
            mid = window.theta1 + 0.5 * window.width if isinstance(window, AngleWindow) else math.nan
            thetas = [phi, 0.0, -1.0, 3.5, math.nan, math.inf, -math.inf]
            if isinstance(window, AngleWindow):
                thetas += [window.theta1, mid, window.theta2]
            for theta in thetas:
                primary = outcome(ray_length, spec, r, theta)
                oracle = outcome(ray_length_intersection, spec, r, theta)
                if isinstance(primary, float) and isinstance(oracle, float):
                    assert primary > 0.0 and oracle > 0.0, (spec, r, theta)
                    if theta == mid:
                        assert abs(primary - oracle) <= 1e-12 * oracle, (spec, r, theta)
                else:
                    assert primary is oracle, (spec, r, theta, primary, oracle)
                assert math.isfinite(theta) or primary is NumericDegeneracy, (spec, r, theta)
            pairs += len(thetas)
    assert pairs > 20000
    # a flat wing 1e14 gaps long: the far ray leaves the apex at
    # theta1 = 1e-14, under a positive sine, and is as long as the wing
    flat = CavitySpec(a=1.0, R=1e14, L=1.0, phi=0.0, units=Units.REDUCED)
    theta1 = limit_angles(flat, 0.0).theta1
    assert ray_length(flat, 0.0, theta1) == ray_length_intersection(flat, 0.0, theta1) == 1e14


def test_riemann_forces_parallel_plates_cancel_expulsion():
    fr = riemann_forces(REDUCED, 1024, 1024)
    assert abs(fr.f_x) <= 1e-6 * abs(fr.f_z)
    assert fr.f_z < 0.0
    assert fr.converged and fr.err_x == 0.0 and fr.err_z == 0.0


def test_riemann_forces_validates_panel_counts():
    with pytest.raises(ValueError):
        riemann_forces(REDUCED, 1, 64)
    with pytest.raises(ValueError):
        riemann_forces(REDUCED, 64, 0)


def test_riemann_forces_second_order_refinement():
    spec = REDUCED._replace(phi=math.radians(1.0))
    ref = total_forces(spec, rel_tol=1e-12)
    errs_z, errs_x = [], []
    for n in (256, 512, 1024):
        rie = riemann_forces(spec, n, n)
        errs_z.append(abs(rie.f_z - ref.f_z))
        errs_x.append(abs(rie.f_x - ref.f_x))
    for errs in (errs_z, errs_x):
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 < coarse / fine < 4.5


def test_riemann_chunking_cannot_change_the_sum(monkeypatch):
    spec = REDUCED._replace(phi=math.radians(2.0))
    chunked = riemann_forces(spec, 300, 64)
    monkeypatch.setattr(trapcav.oracle, "_CHUNK_ROWS", 4096)
    whole = riemann_forces(spec, 300, 64)
    assert chunked.f_x == whole.f_x
    assert chunked.f_z == whole.f_z


def test_riemann_flags_non_finite_geometry():
    # a zero gap is rejected by validate(); feed it raw to hit the guard
    with pytest.raises(NonFiniteSample):
        riemann_forces(CavitySpec(a=0.0, R=1.0, L=1.0, phi=0.0), 16, 16)


@pytest.mark.parametrize("deg", [0.0, 5.0])
def test_verify_suite_passes(deg):
    reports = verify_suite(REDUCED._replace(phi=math.radians(deg)))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed == (r.rel_deviation <= r.tolerance)
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


@pytest.mark.parametrize("units", [Units.REDUCED, Units.SI])
@pytest.mark.parametrize("phi", [0.0873, 0.5, 0.78])
@pytest.mark.parametrize("ratio", [100.0, 1e3, 1e4, 1e5])
def test_verify_suite_passes_on_long_tilted_wings(ratio, phi, units):
    # a uniform Riemann sum in r steps over the apex, where the pressure
    # peaks, and missed these forces by up to 1.2e4 at R/a = 1e5
    a = 1.0 if units is Units.REDUCED else 1e-7
    reports = verify_suite(CavitySpec(a=a, R=a * ratio, L=1.0, phi=phi, units=units))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


@pytest.mark.parametrize("units", [Units.REDUCED, Units.SI])
@pytest.mark.parametrize("phi", [0.0, 1e-4, 0.0873, 0.5, 0.78])
@pytest.mark.parametrize("ratio", [1e-6, 1e-3])
def test_verify_suite_passes_on_short_wings(ratio, phi, units):
    # a difference of the fan primitives over a narrow window missed the
    # inner integrals' 1e-10 gate by up to 7e-10 at R/a = 1e-6
    a = 1.0 if units is Units.REDUCED else 1e-7
    reports = verify_suite(CavitySpec(a=a, R=a * ratio, L=1.0, phi=phi, units=units))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


def test_gauss_rule_matches_numpy_nodes():
    np = pytest.importorskip("numpy")
    x, w = np.polynomial.legendre.leggauss(20)
    assert np.max(np.abs(np.array(trapcav.oracle._GL_X) - x)) <= 1e-15
    assert np.max(np.abs(np.array(trapcav.oracle._GL_W) - w)) <= 1e-15


def test_gauss_forces_match_closed_form():
    # the oracle against the closed form from a micro-gap wing to a
    # million gaps, flat to nearly pi/4, each component at its own size
    for ratio in (1e-6, 1e-3, 0.26, 1.0, 40.0, 1e3, 1e5, 1e6):
        for phi in (0.0, 1e-8, 1e-4, 0.3, 0.78):
            spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
            ref = total_forces(spec, rel_tol=1e-13)
            f_x, f_z = trapcav.oracle._gauss_forces(spec)
            assert abs(f_z - ref.f_z) <= 1e-12 * abs(ref.f_z), (ratio, phi)
            assert abs(f_x - ref.f_x) <= 1e-12 * abs(ref.f_x), (ratio, phi)


# the grid of the 80-digit reference: micro wings to 1e300 gaps, around
# R/a = 1/4, flat to nearly pi/4
REFERENCE_RATIOS = [1e-9, 1e-6, 1e-3, 0.1, 0.25, 0.3, 1.0, 4.0, 40.0, 1e3, 1e6, 1e12, 1e50, 1e150, 1e300]
REFERENCE_PHIS = [0.0, 1e-300, 1e-8, 1e-4, 0.01, 0.3, 0.78]


@pytest.mark.parametrize("ratio", REFERENCE_RATIOS)
def test_gauss_forces_keep_the_digits_of_each_component(ratio):
    # within 1e-14 of each component's own size, f_x too; the nested
    # two-wing rule missed f_x by up to 3.2e283 |f_x| (R/a 1e3, phi
    # 1e-300).  The three-ray reference loses about log10(1/phi) digits, so
    # it runs at 80 + log10(1/phi); where f_x is subnormal its float has an
    # absolute spacing, the smallest subnormal, and below it rounds to 0
    pytest.importorskip("mpmath")
    from test_force_reference import mp, reference_forces

    for phi in REFERENCE_PHIS:
        f_x, f_z = trapcav.oracle._gauss_forces(CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED))
        with mp.workdps(80 + (round(math.log10(1.0 / phi)) if phi else 0)):
            ref_x, ref_z = reference_forces(ratio, phi)
            assert abs(f_z - ref_z) <= 1e-14 * abs(ref_z), (ratio, phi)
            assert abs(f_x - ref_x) <= 1e-14 * abs(ref_x) + math.ulp(0.0), (ratio, phi)
        if phi == 0.0:
            assert f_x == 0.0, ratio


def test_gauss_forces_stay_finite_on_the_longest_flat_wings():
    # 2 rho is inf past R/a 8.99e307, and 0 * inf would make f_z NaN; the
    # sums of terms without their 1/15 would overflow too
    f_x, f_z = trapcav.oracle._gauss_forces(CavitySpec(a=1.0, R=9e307, L=1.0, phi=0.0, units=Units.REDUCED))
    assert f_x == 0.0
    assert math.isfinite(f_z) and abs(f_z + 16.0 / 15.0 * 9e307) <= 1e-14 * 16.0 / 15.0 * 9e307


def _with_f_x(monkeypatch, shift):
    # the primary forces, with f_x replaced by shift(f_x, err_x, oracle f_x)
    total_forces = trapcav.forces.total_forces

    def faulty(spec, *args, **kwargs):
        fr = total_forces(spec, *args, **kwargs)
        f_x = shift(fr.f_x, fr.err_x, trapcav.oracle._gauss_forces(spec)[0])
        return fr._replace(f_x=f_x)

    monkeypatch.setattr(trapcav.forces, "total_forces", faulty)


def test_verify_suite_fails_a_wrong_sign_expulsion(monkeypatch):
    # the closed form once gave f_x with the wrong sign at (1e300, 1e-300);
    # measured against max(|f_x|, |f_z|), the check passed that with a
    # deviation of 3e-19
    spec = CavitySpec(a=1.0, R=1e300, L=1.0, phi=1e-300, units=Units.REDUCED)
    _with_f_x(monkeypatch, lambda f_x, err_x, oracle: -f_x)
    reports = {r.quantity: r for r in verify_suite(spec)}
    assert not reports["total_force_x"].passed
    assert reports["total_force_x"].rel_deviation > 1.0
    assert all(r.passed for name, r in reports.items() if name != "total_force_x")


@pytest.mark.parametrize(
    "ratio, phi, within, shift",
    [
        # the gate is 1e-10 |oracle| + err_x, on either side of the oracle
        (4.0, 0.0873, True, lambda f_x, err_x, o: o + 0.99 * (1e-10 * abs(o) + err_x)),
        (4.0, 0.0873, False, lambda f_x, err_x, o: o - 1.01 * (1e-10 * abs(o) + err_x)),
        (1e12, 1.7e-8, True, lambda f_x, err_x, o: o - 0.99 * (1e-10 * abs(o) + err_x)),
        (1e12, 1.7e-8, False, lambda f_x, err_x, o: o + 1.01 * (1e-10 * abs(o) + err_x)),
        # on a flat short wing the gate is 0: both sides and the closed
        # form's err_x are 0, so any miss fails
        (0.2, 0.0, True, lambda f_x, err_x, o: f_x),
        (0.2, 0.0, False, lambda f_x, err_x, o: 1e-300),
    ],
)
def test_total_force_x_is_gated_at_the_oracle_plus_err_x(monkeypatch, ratio, phi, within, shift):
    _with_f_x(monkeypatch, shift)
    (report,) = [r for r in verify_suite(REDUCED._replace(R=ratio, phi=phi)) if r.quantity == "total_force_x"]
    assert report.passed == within, report
    if phi == 0.0:
        assert report.rel_deviation == (0.0 if within else math.inf)


def test_verify_suite_passes_on_a_seeded_draw():
    # R/a 1e-15..1e300, phi at 0, log-uniform and uniform, both unit systems
    rng = random.Random(20120213)
    for _ in range(200):
        units = rng.choice([Units.REDUCED, Units.SI])
        a = 1.0 if units is Units.REDUCED else 10.0 ** rng.uniform(-9.0, -5.0)
        phi = rng.choice([0.0, 10.0 ** rng.uniform(-300.0, math.log10(0.785)), rng.uniform(0.0, 0.785)])
        spec = CavitySpec(a=a, R=a * 10.0 ** rng.uniform(-15.0, 300.0), L=1.0, phi=phi, units=units)
        for r in verify_suite(spec):
            assert r.passed, (spec, r)


# from micro wings to 1e300 gaps, and from parallel mirrors through angles
# whose sin^2 2 phi is subnormal (1e-160) or 0 (1e-300) to just below pi/4
VERIFY_RATIOS = [1e-15, 0.3, 12.0, 1e5, 1e20, 1e300]
VERIFY_PHIS = [0.0, 1e-300, 1e-160, 1e-8, 0.1, math.nextafter(math.pi / 4, 0.0)]


@pytest.mark.parametrize("phi", VERIFY_PHIS)
@pytest.mark.parametrize("ratio", VERIFY_RATIOS)
def test_verify_suite_passes_from_micro_wings_to_1e300_gaps(ratio, phi):
    # at (1e300, 1e-300) the closed form's f_z was 31% off once 8 S^2
    # underflowed to 0, and verify exited 1
    reports = verify_suite(CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


def test_p_panels_are_bounded_on_wings_of_any_length():
    # the r axis of the nested rule once took about 2 log_4(R/a) panels,
    # about 1000 at R/a 1e300; the p-axis takes at most 19 per half (8
    # edges graded from p = 0, 10 from the tilt) up to the largest float,
    # in order from 0 to rho
    ratios = [10.0 ** (k / 8) for k in range(-120, 2465)] + [sys.float_info.max]
    for ratio in ratios:
        for phi in VERIFY_PHIS:
            panels = trapcav.oracle._p_panels(ratio, math.sin(phi))
            assert len(panels) <= 19, (ratio, phi)
            starts = [start for start, _ in panels]
            assert starts[0] == 0.0 and starts == sorted(set(starts)), (ratio, phi)
            assert all(width > 0.0 for _, width in panels), (ratio, phi)
            assert math.isclose(starts[-1] + panels[-1][1], ratio), (ratio, phi)


def _graded_from_the_apex(rho, s):
    # the p panels: edges at 4^k (k <= 7) and, on a tilted wing, where
    # g = 1 + s p is 2 4^k (k <= 9), strictly inside (0, rho)
    edges = {4.0**k for k in range(8)}
    if s > 0.0:
        edges |= {-1.0 / s + 2.0 * 4.0**k / s for k in range(10)}
    edges = [0.0, *sorted(p for p in edges if 0.0 < p < rho), rho]
    return [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]


def test_p_panels_keep_their_edges():
    # both halves of the oracle's p-integral run on these panels, from
    # micro wings to 1e300 gaps, flat to nearly pi/4
    rng = random.Random(32768)
    ratios = [10.0 ** rng.uniform(-15.0, 300.0) for _ in range(2000)]
    for k in range(8):
        # the wing takes the edge 4^k once it is longer than 4^k
        edge = 4.0**k
        ratios += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    for ratio in ratios:
        for phi in VERIFY_PHIS + [1e-4, 0.7]:
            s = math.sin(phi)
            assert trapcav.oracle._p_panels(ratio, s) == _graded_from_the_apex(ratio, s), (ratio, phi)


def test_verify_suite_passes_on_a_flat_wing_1e30_gaps_long():
    spec = CavitySpec(a=1.0, R=1e30, L=1.0, phi=0.0, units=Units.REDUCED)
    reports = verify_suite(spec)
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


@pytest.mark.parametrize(
    "ratio, units",
    [(1e20, Units.REDUCED), (1e20, Units.SI), (1e160, Units.REDUCED)],
)
def test_verify_suite_passes_on_long_tilted_wings_past_1e16_gaps(ratio, units):
    # in floats the raw vector P->M3 lost the gap past r/a about 1e16, and
    # the window from P collapsed to theta2 = -pi, below theta1
    a = 1.0 if units is Units.REDUCED else 1e-7
    reports = verify_suite(CavitySpec(a=a, R=a * ratio, L=1.0, phi=0.1, units=units))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


def test_gauss_forces_skip_wing_points_out_of_reach():
    # the nested two-wing rule met inf * 0 at r about 9.3e154 gaps, where
    # its weight times s(r) overflowed while both inner sums were 0, and
    # both forces were NaN; in the p-integral g^4 overflows there, and the
    # term is 0
    spec = CavitySpec(a=1.0, R=1e160, L=1.0, phi=0.1, units=Units.REDUCED)
    ref = total_forces(spec, rel_tol=1e-9)
    f_x, f_z = trapcav.oracle._gauss_forces(spec)
    assert abs(f_z - ref.f_z) <= 1e-12 * abs(ref.f_z)
    assert abs(f_x - ref.f_x) <= 1e-12 * abs(ref.f_z)


@pytest.mark.parametrize("phi", [0.0, 1e-4, 0.5])
def test_verify_suite_angles_on_long_wings(phi):
    spec = CavitySpec(a=1.0, R=1e5, L=1.0, phi=phi, units=Units.REDUCED)
    (angles,) = [r for r in verify_suite(spec) if r.quantity == "limit_angles"]
    assert angles.passed, angles.rel_deviation


@pytest.mark.parametrize(
    "spec",
    [
        CavitySpec(a=-1.0, R=4.0, L=1.0, phi=0.1),
        CavitySpec(a=1.0, R=4.0, L=1.0, phi=1.0),
        CavitySpec(a=1.0, R=4.0, L=1.0, phi=0.1, units="si"),
    ],
)
def test_oracle_geometry_validates_the_spec(spec):
    # unchecked, these return a negative ray length, a window for a fan
    # that folds onto the wing, or values for a unit system given as text
    with pytest.raises(InvalidCavity):
        limit_angles_vector(spec, 1.0)
    with pytest.raises(InvalidCavity):
        ray_length_intersection(spec, 1.0, 2.0)


def test_verify_suite_rejects_invalid_spec():
    with pytest.raises(InvalidCavity):
        verify_suite(CavitySpec(a=1.0, R=-1.0, L=1.0, phi=0.0))


def test_verify_suite_detects_corrupted_constants(monkeypatch):
    # the oracle carries its own literals, so only the primary force path
    # inherits the corruption and only the force checks may fail
    assert trapcav.geometry.K is trapcav.spec.K
    monkeypatch.setattr(trapcav.spec, "K", 2e-34 * 2.99792458e8 * math.pi**2 / 240.0)
    reports = {r.quantity: r for r in verify_suite(SI_THIN)}
    assert not reports["total_force_z"].passed
    assert not reports["total_force_x"].passed
    for name in CHECK_NAMES[:4]:
        assert reports[name].passed


def _nan_theta1(limit_angles):
    return lambda spec, r: AngleWindow(math.nan, limit_angles(spec, r).theta2)


def _nan_width(window):
    def faulty(self, r):
        u1, _, sigma = window(self, r)
        return u1, math.nan, sigma

    return faulty


@pytest.mark.parametrize(
    "module, name, fault, failing",
    [
        (trapcav.geometry, "limit_angles", _nan_theta1, {"limit_angles"}),
        (trapcav.geometry, "ray_length", lambda f: lambda *args: math.nan, {"ray_length"}),
        (trapcav.oracle, "ray_length_intersection", lambda f: lambda *args: math.nan, {"ray_length"}),
        (trapcav.kernels, "fan_integrals", lambda f: lambda *args: (math.nan, math.nan),
         {"inner_integral_z", "inner_integral_x"}),
        (trapcav.geometry.WingParams, "window", _nan_width, {"inner_integral_z", "inner_integral_x"}),
    ],
    ids=["limit_angles", "ray_length", "ray_length_intersection", "fan_integrals", "window"],
)
def test_verify_suite_fails_the_checks_that_read_a_nan(monkeypatch, module, name, fault, failing):
    # a NaN on either side of a comparison is a NaN deviation, which ranks
    # above every number and fails; the checks that do not read the value
    # still pass.  The inner checks read the kernel's window and closed
    # form, not the limit angles
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    reports = verify_suite(SI_THIN)
    assert [r.quantity for r in reports] == CHECK_NAMES
    assert {r.quantity for r in reports if not r.passed} == failing
    assert all(math.isnan(r.rel_deviation) for r in reports if r.quantity in failing)


def placeholder_worst(quantity, rows, tol):
    # the reducer that the NaN-ranking one replaced: a (0, 0, 0) placeholder
    # that a row replaces where its deviation is >= the worst so far; a
    # (miss, scale, p, o) row deviates by miss / scale, and by the rule that
    # total_force_x once applied on its own where the scale is 0
    worst = (0.0, 0.0, 0.0)
    for miss, scale, p, o in rows:
        dev = miss / scale if scale else (math.inf if miss > 0.0 else miss)
        if dev >= worst[0]:
            worst = (dev, p, o)
    return OracleReport(quantity, worst[1], worst[2], worst[0], tol, worst[0] <= tol)


@pytest.mark.parametrize("ratio", [0.3, 4.0, 12.0, 1e5])
def test_verify_suite_picks_the_rows_the_placeholder_loop_picked(monkeypatch, ratio):
    # at phi = 0 most angle and ray-length deviations are exactly 0.0, with
    # rows of different values, so the rule for ties decides the report
    seen = []
    worst = trapcav.oracle._worst

    def spy(quantity, rows, tol):
        seen.append((quantity, list(rows), tol))
        return worst(quantity, rows, tol)

    monkeypatch.setattr(trapcav.oracle, "_worst", spy)
    reports = verify_suite(REDUCED._replace(R=ratio))
    assert [quantity for quantity, _, _ in seen] == CHECK_NAMES
    angles = seen[0][1]
    assert len({row[2:] for row in angles if row[0] == 0.0}) > 1
    for report, args in zip(reports, seen):
        assert repr(report) == repr(placeholder_worst(*args))


TIED_DEVIATIONS = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, math.inf])


@given(st.lists(st.tuples(TIED_DEVIATIONS, st.just(1.0), st.floats(), st.floats()), min_size=1, max_size=8),
       st.data())
def test_worst_ranks_nan_above_every_number(rows, data):
    assert repr(trapcav.oracle._worst("q", rows, 1.0)) == repr(placeholder_worst("q", rows, 1.0))
    nan_at = data.draw(st.integers(0, len(rows)))
    rows.insert(nan_at, (math.nan, 1.0, -1.0, 1.0))
    report = trapcav.oracle._worst("q", rows, 1.0)
    assert math.isnan(report.rel_deviation) and not report.passed
    assert (report.closed_form, report.oracle) == (-1.0, 1.0)


def test_worst_gives_a_zero_scale_no_division():
    # a zero scale makes a zero miss 0 and any other inf, and keeps a NaN
    # miss NaN, in every check alike: the inner rows once divided 0 by 0
    for miss, dev in ((0.0, 0.0), (5e-324, math.inf), (math.inf, math.inf)):
        report = trapcav.oracle._worst("q", [(miss, 0.0, 1.0, 1.0)], 1.0)
        assert report.rel_deviation == dev and report.passed is (dev <= 1.0)
    assert math.isnan(trapcav.oracle._worst("q", [(math.nan, 0.0, 1.0, 1.0)], 1.0).rel_deviation)
    assert trapcav.oracle._worst("q", [(3.0, 4.0, 1.0, 1.0)], 1.0).rel_deviation == 0.75


@given(
    a=st.floats(0.05, 5.0),
    ratio=st.floats(1.5, 50.0),
    phi=st.floats(0.0, math.pi / 4 - 0.01),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_angle_paths_agree_everywhere(a, ratio, phi, frac):
    spec = CavitySpec(a=a, R=a * ratio, L=1.0, phi=phi)
    r = spec.R * frac
    closed = limit_angles(spec, r)
    vector = limit_angles_vector(spec, r)
    assert abs(closed.theta1 - vector.theta1) < 1e-12
    assert abs(closed.theta2 - vector.theta2) < 1e-12
