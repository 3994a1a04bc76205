import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
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
    limit_angles_vector,
    ray_length_intersection,
    riemann_forces,
    verify_suite,
)
import trapcav.geometry
import trapcav.oracle

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
    # the oracle against the closed forms (three-ray form and tensor rule)
    # from a micro-gap wing to a million gaps, flat to nearly pi/4
    for ratio in (1e-6, 1e-3, 0.26, 1.0, 40.0, 1e3, 1e5, 1e6):
        for phi in (0.0, 1e-8, 1e-4, 0.3, 0.78):
            spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
            ref = total_forces(spec, rel_tol=1e-13)
            f_x, f_z = trapcav.oracle._gauss_forces(spec)
            assert abs(f_z - ref.f_z) <= 1e-12 * abs(ref.f_z), (ratio, phi)
            assert abs(f_x - ref.f_x) <= 1e-12 * abs(ref.f_z), (ratio, phi)


@pytest.mark.parametrize("lo", [0.0, -1.0, -0.5e300, -1e300 + 1e290])
def test_lower_wing_panels_stop_grading_past_4_to_the_7(lo):
    # the lower wing of a wing 1e300 gaps long takes at most 18 panels per
    # r node, not about 2 log_4(1e300), still in order from lo and with
    # the last one ending at lo + rho
    rho = 1e300
    panels = trapcav.oracle._offset_panels(lo, 1.0, rho)
    assert len(panels) <= 18
    starts = [start for start, _ in panels]
    assert starts[0] == lo and starts == sorted(set(starts))
    assert all(width > 0.0 for _, width in panels)
    assert math.fsum((lo, rho, -starts[-1])) == panels[-1][1]


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
    # the window from P collapsed to theta2 = -pi (DegenerateFan)
    a = 1.0 if units is Units.REDUCED else 1e-7
    reports = verify_suite(CavitySpec(a=a, R=a * ratio, L=1.0, phi=0.1, units=units))
    assert [r.quantity for r in reports] == CHECK_NAMES
    for r in reports:
        assert r.passed, f"{r.quantity}: {r.rel_deviation} > {r.tolerance}"


def test_gauss_forces_skip_wing_points_out_of_reach():
    # at r about 9.3e154 gaps w_r s(r) overflows while both inner sums are
    # 0, and inf * 0 made both forces NaN
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
    monkeypatch.setattr(trapcav.geometry, "K", 2e-34 * 2.99792458e8 * math.pi**2 / 240.0)
    reports = {r.quantity: r for r in verify_suite(SI_THIN)}
    assert not reports["total_force_z"].passed
    assert not reports["total_force_x"].passed
    for name in CHECK_NAMES[:4]:
        assert reports[name].passed


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
