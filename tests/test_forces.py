import itertools
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    CavitySpec,
    InvalidCavity,
    NonFiniteSample,
    SweepAxis,
    Units,
    pairwise_sum,
    pressure_prefactor,
    pressure_profile,
    specific_pressures,
    sweep,
    total_forces,
)
import trapcav.forces
import trapcav.kernels
from trapcav.geometry import REL_TOL_FLOOR

REDUCED = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)

# cross-checked against a 2048^2 midpoint double sum and an independent
# quadrature of the closed-form pressures
FX_1DEG = -2.3107975909e-02
FZ_1DEG = -5.7573259882
FX_5DEG = -3.1531460339e-02
FZ_5DEG = -1.7412465007
FZ_0DEG = -10.2666673210
FX_SI_1DEG = -4.694261723e-10  # a=400 nm, R=4 um, L=1 m, phi=1 deg
FZ_SI_1DEG = -1.169569984e-07


def reduced_at(deg: float) -> CavitySpec:
    return REDUCED._replace(phi=math.radians(deg))


def test_forces_frozen_reduced_values():
    one = total_forces(reduced_at(1.0))
    assert math.isclose(one.f_x, FX_1DEG, rel_tol=1e-6)
    assert math.isclose(one.f_z, FZ_1DEG, rel_tol=1e-6)
    five = total_forces(reduced_at(5.0))
    assert math.isclose(five.f_x, FX_5DEG, rel_tol=1e-6)
    assert math.isclose(five.f_z, FZ_5DEG, rel_tol=1e-6)
    assert one.converged and five.converged


def test_forces_frozen_si_values():
    si = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=math.radians(1.0))
    fr = total_forces(si)
    assert math.isclose(fr.f_x, FX_SI_1DEG, rel_tol=1e-5)
    assert math.isclose(fr.f_z, FZ_SI_1DEG, rel_tol=1e-5)


def test_parallel_plates_have_no_expulsion():
    fr = total_forces(REDUCED)
    assert math.isclose(fr.f_z, FZ_0DEG, rel_tol=1e-6)
    assert abs(fr.f_x) <= 1e-10 * abs(fr.f_z)


@pytest.mark.parametrize("ratio", [1e4, 1e6])
def test_long_parallel_plates_match_exact_force(ratio):
    # F_z = -(16/15) R/a + 2/5 exactly at phi = 0; the gap-wide edge
    # deficits are invisible to panels spanning the whole wing
    fr = total_forces(REDUCED._replace(R=ratio))
    exact = -16.0 / 15.0 * ratio + 0.4
    assert fr.converged
    assert math.isclose(fr.f_z, exact, rel_tol=1e-12)


def test_error_estimates_are_sane():
    fr = total_forces(reduced_at(2.0))
    assert 0.0 <= fr.err_z <= 1e-6 * abs(fr.f_z)
    assert 0.0 <= fr.err_x <= 1e-6 * abs(fr.f_z)


def test_length_scales_linearly():
    base = total_forces(reduced_at(3.0))
    doubled = total_forces(reduced_at(3.0)._replace(L=2.0))
    assert doubled.f_x == 2.0 * base.f_x
    assert doubled.f_z == 2.0 * base.f_z


def test_two_wing_bookkeeping():
    spec = reduced_at(4.0)
    one = total_forces(spec)
    two = total_forces(spec, wing_count=2)
    assert two.f_x == 2.0 * one.f_x
    assert two.err_x == 2.0 * one.err_x
    assert two.f_z == 0.0 and two.err_z == 0.0
    assert two.wing_count == 2


@pytest.mark.parametrize("bad", [0, 3, -1])
def test_wing_count_validation(bad):
    with pytest.raises(ValueError):
        total_forces(REDUCED, wing_count=bad)


def test_rejects_bad_tolerance_and_spec():
    with pytest.raises(ValueError):
        total_forces(REDUCED, rel_tol=0.0)
    with pytest.raises(InvalidCavity):
        total_forces(CavitySpec(a=-1.0, R=1.0, L=1.0, phi=0.0))


def test_tolerance_below_the_error_floor_fails_fast():
    # a target tighter than the floor is refused for a lone call and for a
    # whole sweep alike, and the floor itself is accepted
    for rel_tol in (1e-14, 0.5 * REL_TOL_FLOOR, math.nan):
        with pytest.raises(ValueError, match="rel_tol must be at least"):
            total_forces(REDUCED, rel_tol=rel_tol)
        with pytest.raises(ValueError):
            sweep(REDUCED, SweepAxis.PHI, [0.0, math.radians(1.0)], rel_tol=rel_tol)
    assert 1.1e-14 < REL_TOL_FLOOR < 1e-14 * 1.12
    fr = total_forces(REDUCED, rel_tol=REL_TOL_FLOOR)
    assert fr.f_z == total_forces(REDUCED).f_z < 0.0


def test_non_convergence_is_absorbed():
    # near phi = pi/4 on a short wing the near and far corners cancel to 2%
    # of their terms, so the rounding bound exceeds the tightest target;
    # the result says so instead of raising, with the same forces
    spec = CavitySpec(a=1.0, R=0.26, L=1.0, phi=0.78, units=Units.REDUCED)
    tight = total_forces(spec, rel_tol=REL_TOL_FLOOR)
    loose = total_forces(spec)
    assert not tight.converged and loose.converged
    assert max(tight.err_x, tight.err_z) > REL_TOL_FLOOR * abs(tight.f_z)
    assert (tight.f_x, tight.f_z, tight.err_x, tight.err_z) == (loose.f_x, loose.f_z, loose.err_x, loose.err_z)


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
def test_batch_rows_equal_lone_calls(rel_tol):
    # a sweep runs the lone call's formula once per row: every field of
    # every row has the bits of its lone call, in both unit systems
    ratios = [float(ratio) for ratio in 10.0 ** np.linspace(-3.0, 5.0, 15)]
    fields = lambda fr: (fr.spec, fr.f_x, fr.f_z, fr.err_x, fr.err_z, fr.wing_count, fr.converged)
    rows = []
    for phi in (0.0, 1e-4, 0.1, 0.78):
        for gap, units in ((1.0, Units.REDUCED), (4e-7, Units.SI)):
            base = CavitySpec(gap, gap, 1.0, phi, units)
            rows += [row for _, row in sweep(base, SweepAxis.R, [gap * r for r in ratios], rel_tol=rel_tol).points]
    assert len(rows) == 120 and {row.spec.units for row in rows} == set(Units)
    assert [fields(row) for row in rows] == [fields(total_forces(row.spec, rel_tol)) for row in rows]


@pytest.mark.parametrize("phi", [0.0, 1e-3, 0.3, 0.78])
def test_forces_do_not_depend_on_rel_tol(phi):
    # over eight decades of R/a the forces do not depend on rel_tol, which
    # only sets converged; at 2e-14 the bound still holds on every wing
    lengths = [10.0**k for k in range(-3, 6)]
    coarse = sweep(REDUCED._replace(phi=phi), SweepAxis.R, lengths, rel_tol=1e-12)
    fine = sweep(REDUCED._replace(phi=phi), SweepAxis.R, lengths, rel_tol=2e-14)
    for (_, c), (_, f) in zip(coarse.points, fine.points):
        assert c.converged and f.err_z <= 1e-12 * abs(f.f_z)
        assert (c.f_x, c.f_z, c.err_x, c.err_z) == (f.f_x, f.f_z, f.err_x, f.err_z)


# each tensor rule's order and the longest wing, in gaps, that it serves
RULE_LIMITS = [(0.004, 4), (0.02, 5), (0.05, 6), (0.13, 7), (0.25, 8)]


def test_gauss_legendre_literals_are_the_rule():
    # the tensor rules' nodes and weights are literals, so that importing
    # the package does not import numpy.polynomial
    mpmath = pytest.importorskip("mpmath")
    assert [(limit, len(diagonal)) for limit, _, diagonal in trapcav.forces._RULES] == RULE_LIMITS
    assert trapcav.forces._RULES[-1][0] == trapcav.forces._SHORT_WING
    for (limit, n), rule in zip(RULE_LIMITS, trapcav.forces._RULES):
        x, w = trapcav.forces._GL[n]
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.allclose(x, nodes, rtol=0.0, atol=4e-16), n
        assert np.allclose(w, weights, rtol=0.0, atol=1e-15), n
        # each literal is the correctly rounded node or weight: Newton's
        # method on P_n from the literal node, at 30 digits
        with mpmath.workdps(30):
            for xi, wi in zip(x, w):
                t = mpmath.mpf(xi)
                for _ in range(4):
                    p, q = mpmath.legendre(n, t), mpmath.legendre(n - 1, t)
                    t -= p * (t * t - 1) / (n * (t * p - q))
                dp = n * (t * mpmath.legendre(n, t) - mpmath.legendre(n - 1, t)) / (t * t - 1)
                assert (float(t), float(2 / ((1 - t * t) * dp * dp))) == (xi, wi), (n, xi)
        # the rule runs over tables of those literals: the n (n - 1) / 2
        # node pairs i < j, in order, and the n diagonal nodes
        pairs = [(x[i] - x[j], 2.0 + x[i] + x[j], w[i] * w[j]) for i, j in itertools.combinations(range(n), 2)]
        diagonal = [(2.0 * (1.0 + x[i]), w[i] * w[i]) for i in range(n)]
        assert rule == (limit, tuple(pairs), tuple(diagonal)), n


# The three-ray form as it was written with one call per ray.  The forces
# of wings longer than a quarter gap must keep its bits: the shared ray
# constants of trapcav.forces only reuse values, and reorder no operation.
def _ray(sg: float, ka: float, mu: float, t: float, w: float, C: float, S: float):
    # I_F / w^3 and I_G / w^3 at the ray of sine sg and cosine ka, where
    # mu = C sg + S ka is the sine of the ray angle plus 2 phi and t = sg w.
    # 45 sg^3 I_F is written with mu, which is small where its own terms
    # would cancel, and as a polynomial in 1/t, so that neither sg^3 nor
    # w^3 divides alone
    cc, ss, cs = C * C, S * S, C * S
    w2 = w * w
    w3 = w2 * w
    sg2, ka2 = sg * sg, ka * ka
    i_f = (
        ((8.0 * ss / t + 24.0 * C * mu / w) / t - 12.0 * ss / w2) / t
        + (3.0 * sg * ((ss - 4.0 * cc) + sg2 * (ss - cc)) - 6.0 * cs * ka * (3.0 + sg2)) / w3
    ) / 45.0
    i_g = (cc * ka * (ka2 - 3.0) + 2.0 * cs * sg2 * sg - ss * ka * ka2) / (15.0 * w3)
    return i_f, i_g


def _three_ray(rho: float, c: float, s: float, C: float, S: float):
    # reduced (f_x, f_z) on a wing of rho > 1/4 gaps, and the summed
    # magnitudes of each one's terms.  A and B lie at the same distance h
    # from their wing points, and the sine of A is sigma_B w
    w = 1.0 + 2.0 * rho * s
    h = math.hypot(rho + s, c)
    sg = (c + rho * S) / h
    a_f, a_g = _ray(sg, (s - rho * C) / h, c / h, sg, 1.0, C, S)
    m_f, m_g = _ray(c, s, c, c, 1.0, C, S)
    b_f, b_g = _ray(c / h, (rho + s) / h, sg, sg, w, C, S)
    # the four terms of each primitive: A, M, M / w^3 and B / w^3
    w3 = w * w * w
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


def _three_ray_fields(spec: CavitySpec, rel_tol: float, wing_count: int):
    # the hex fields of total_forces from the reference above, with the
    # scaling, bounds and two-wing rule of trapcav.forces
    phi = spec.phi
    c, s, C, S = math.cos(phi), math.sin(phi), math.cos(2.0 * phi), math.sin(2.0 * phi)
    x, z, abs_x, abs_z = _three_ray(spec.R / spec.a, c, s, C, S)
    scale = pressure_prefactor(spec) / spec.a / spec.a / spec.a * spec.L
    f_x, f_z = x * scale, z * scale
    err_x, err_z = trapcav.forces._ROUNDING * abs_x * scale, trapcav.forces._ROUNDING * abs_z * scale
    converged = max(err_x, err_z) <= rel_tol * max(abs(f_x), abs(f_z))
    if wing_count == 2:
        f_x, err_x = 2.0 * f_x, 2.0 * err_x
        f_z = err_z = 0.0
    return f_x.hex(), f_z.hex(), err_x.hex(), err_z.hex(), converged


@given(
    ratio=st.one_of(
        st.just(math.nextafter(0.25, 1.0)),
        st.floats(-0.6, 6.0).map(lambda e: 10.0**e),
        # the B terms divide by (sigma_B w)^3, which stays normal here
        st.floats(102.0, 300.0).map(lambda e: 10.0**e),
    ),
    phi=st.floats(0.0, math.pi / 4, exclude_max=True),
    gap=st.one_of(st.none(), st.floats(-9.0, -5.0)),
    wing_count=st.sampled_from([1, 2]),
    rel_tol=st.sampled_from([1e-9, REL_TOL_FLOOR]),
)
@settings(max_examples=300, deadline=None)
def test_three_ray_form_keeps_its_bits(ratio, phi, gap, wing_count, rel_tol):
    # total_forces and a sweep row on wings longer than a quarter gap, in
    # both unit systems, against the one-call-per-ray reference bit for bit
    if gap is None:
        spec = CavitySpec(a=1.0, R=ratio, L=1.0, phi=phi, units=Units.REDUCED)
    else:
        a = 10.0**gap
        spec = CavitySpec(a=a, R=a * ratio, L=1e-3, phi=phi)
    assert spec.R / spec.a > trapcav.forces._SHORT_WING
    fields = lambda fr: (fr.f_x.hex(), fr.f_z.hex(), fr.err_x.hex(), fr.err_z.hex(), fr.converged)
    expected = _three_ray_fields(spec, rel_tol, wing_count)
    assert fields(total_forces(spec, rel_tol, wing_count=wing_count)) == expected
    ((_, row),) = sweep(spec, SweepAxis.R, [spec.R], rel_tol=rel_tol, wing_count=wing_count).points
    assert fields(row) == expected


def test_formulas_agree_at_the_switch():
    # the tensor rule just below R/a = 1/4 and the three-ray form just
    # above it give the same force to rounding
    for phi in (0.0, 1e-3, 0.3, 0.78):
        below = total_forces(REDUCED._replace(R=0.25, phi=phi))
        above = total_forces(REDUCED._replace(R=math.nextafter(0.25, 1.0), phi=phi))
        assert abs(above.f_z - below.f_z) <= 1e-13 * abs(below.f_z)
        assert abs(above.f_x - below.f_x) <= 1e-13 * abs(below.f_z)


@pytest.mark.parametrize("limit", [limit for limit, _ in RULE_LIMITS[:-1]])
def test_tensor_rules_agree_at_their_limits(limit):
    # the n-point rule at its limit and the (n + 1)-point rule just above
    # it give the same force to rounding
    for phi in (0.0, 1e-8, 1e-3, 0.3, 0.78):
        below = total_forces(REDUCED._replace(R=limit, phi=phi))
        above = total_forces(REDUCED._replace(R=math.nextafter(limit, 1.0), phi=phi))
        assert abs(above.f_z - below.f_z) <= 1e-15 * abs(below.f_z), phi
        assert abs(above.f_x - below.f_x) <= below.err_x, phi


def test_infinite_tolerance_is_refused():
    for rel_tol in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="rel_tol must be at least"):
            sweep(REDUCED, SweepAxis.PHI, [0.0], rel_tol=rel_tol)
        with pytest.raises(ValueError):
            total_forces(REDUCED, rel_tol=rel_tol)


def test_forces_run_no_kernel_and_leave_numpy_unloaded(monkeypatch):
    # the closed forms run no pressure kernel
    def no_kernel(*args, **kwargs):
        raise AssertionError("a pressure kernel ran")

    # forces imports wing_pressures from kernels where it samples a profile
    monkeypatch.setattr(trapcav.kernels, "wing_pressures", no_kernel)
    for module in (trapcav.kernels, trapcav.forces):
        monkeypatch.setattr(module, "specific_pressures", no_kernel)
    for spec in (reduced_at(1.0), reduced_at(1.0)._replace(R=0.1)):
        for wing_count in (1, 2):
            assert total_forces(spec, wing_count=wing_count).converged
    # nor do they import the array layer: in a fresh process, both forms
    # leave numpy unloaded
    probe = (
        "import math, sys\n"
        "from trapcav import CavitySpec, Units, total_forces\n"
        "for R in (10.0, 0.1):\n"
        "    for wings in (1, 2):\n"
        "        spec = CavitySpec(1.0, R, 1.0, math.radians(1.0), Units.REDUCED)\n"
        "        assert total_forces(spec, wing_count=wings).converged\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_matches_trapezoid_over_dense_profile():
    spec = reduced_at(1.0)
    prof = pressure_profile(spec, 100_001)
    r = np.array([s.r for s in prof.samples])
    h = r[1] - r[0]
    fr = total_forces(spec)
    for attr, total in (("p_x", fr.f_x), ("p_z", fr.f_z)):
        y = np.array([getattr(s, attr) for s in prof.samples])
        trap = pairwise_sum(0.5 * (y[:-1] + y[1:])) * h * spec.L
        assert math.isclose(trap, total, rel_tol=1e-5)


def test_profile_grid_and_signs():
    prof = pressure_profile(REDUCED, 101)
    rs = [s.r for s in prof.samples]
    assert rs[0] == 0.0 and rs[-1] == REDUCED.R
    assert all(b > a for a, b in zip(rs, rs[1:]))
    assert all(s.p_z < 0.0 for s in prof.samples)
    # expulsion antisymmetric about the wing midpoint for parallel plates
    first, mid, last = prof.samples[0], prof.samples[50], prof.samples[100]
    assert math.isclose(first.p_x, -last.p_x, rel_tol=1e-12)
    assert abs(mid.p_x) < 1e-12 * abs(mid.p_z)


def test_profile_sign_change_moves_with_angle():
    prof = pressure_profile(reduced_at(1.0), 512)
    signs = [s.p_x > 0 for s in prof.samples]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    assert flips == 1


def test_profile_last_sample_is_exactly_R():
    # R * 100 / 100 rounds one ulp above this R
    spec = reduced_at(1.0)._replace(R=1874.971575805314)
    assert spec.R * 100 / 100 > spec.R
    prof = pressure_profile(spec, 101)
    rs = [s.r for s in prof.samples]
    assert rs[-1] == spec.R
    assert rs[:-1] == [spec.R * i / 100 for i in range(100)]


def test_profile_refuses_pressures_that_are_not_finite():
    # K / a^4 overflows at a = 1e-90 m, where the forces are still finite
    spec = CavitySpec(a=1e-90, R=4e-90, L=1.0, phi=math.radians(5.0))
    with pytest.raises(NonFiniteSample) as err:
        pressure_profile(spec, 3)
    assert err.value.x == 0.0 and math.isinf(err.value.value)
    assert math.isfinite(total_forces(spec).f_z)


def test_profile_pressures_scale_as_a_to_the_minus_4_down_to_tiny_gaps():
    # the kernel works in units of the gap, so p_z a^4 keeps its digits
    # where a^4 and s^4 are subnormal or 0, until K / a^4 overflows
    def scaled_p_z(a):
        prof = pressure_profile(CavitySpec(a, 4.0 * a, 1.0, math.radians(5.0)), 3)
        return [s.p_z * a * a * a * a for s in prof.samples]

    expected = scaled_p_z(1e-7)
    for a in (1e-77, 1e-80, 1e-83):
        for got, want in zip(scaled_p_z(a), expected):
            assert abs(got - want) <= 1e-14 * abs(want), a
    with pytest.raises(NonFiniteSample):
        scaled_p_z(1e-300)


def test_profile_needs_two_samples():
    with pytest.raises(ValueError):
        pressure_profile(REDUCED, 1)


def test_profile_refuses_a_count_that_is_not_an_integer():
    # r = R i / (n - 1) with n = 3.5 would give r = 0, 1.6, 3.2 and then R
    with pytest.raises(ValueError):
        pressure_profile(REDUCED._replace(R=4.0), 3.5)


@pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_profile_accepts_any_integer_count(n):
    # a numpy count gives the same plain-float samples as an int
    prof = pressure_profile(REDUCED._replace(R=4.0), n)
    assert [sample.r for sample in prof.samples] == [0.0, 2.0, 4.0]
    assert all(type(x) is float for sample in prof.samples for x in sample)


@pytest.mark.parametrize("n", [3.0, np.float64(3.0), "3", None, Fraction(3), Decimal(3)])
def test_profile_refuses_counts_of_other_types(n):
    with pytest.raises(ValueError, match="whole number of samples"):
        pressure_profile(REDUCED, n)


def test_a_wing_whose_s4_overflows_warns_nothing():
    # s^4 overflows to inf far out on the wing, where the pressure is 0;
    # numpy's RuntimeWarning would be an error here
    long_wing = CavitySpec(a=1e-6, R=1e300, L=1.0, phi=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = total_forces(long_wing)
        prof = pressure_profile(long_wing, 5)
    assert res.converged and res.f_z < 0.0 and res.f_x < 0.0
    assert prof.samples[0].p_z < 0.0 and prof.samples[-1].p_z == 0.0


def test_edge_pressure_halves_for_wide_plates():
    wide = CavitySpec(a=1.0, R=100.0, L=1.0, phi=0.0, units=Units.REDUCED)
    prof = pressure_profile(wide, 3)
    ratio = prof.samples[0].p_z / prof.samples[1].p_z
    assert math.isclose(ratio, 0.5000000000098332, rel_tol=1e-9)
    assert math.isclose(ratio, 0.5, rel_tol=5e-3)


@given(
    a=st.floats(0.5, 2.0),
    ratio=st.floats(2.0, 30.0),
    phi=st.floats(0.0, math.pi / 4 - 1e-3),
)
@settings(max_examples=25, deadline=None)
def test_compression_always_pulls(a, ratio, phi):
    fr = total_forces(CavitySpec(a=a, R=a * ratio, L=1.0, phi=phi), rel_tol=1e-7)
    assert fr.converged
    assert fr.f_z < 0.0
    assert fr.err_x >= 0.0 and fr.err_z >= 0.0


@pytest.mark.parametrize("fault", ["nan", "raise"])
def test_a_failing_cavity_fails_alone(fault):
    # one sweep row of four has no finite force: with "nan" its R/a
    # overflows and the formulas give NaN, with "raise" its f_z underflows
    # to 0.  That row is flagged where its lone call raises, and the other
    # rows are their lone results
    if fault == "nan":
        base, lengths, bad = CavitySpec(a=1e-10, R=1e-9, L=1.0, phi=0.3), [7e-11, 1e-9, 3e-8, 1e300], 3
    else:
        base, lengths, bad = reduced_at(3.0), [1e-200, 0.7, 10.0, 4e4], 0
    rows = [row for _, row in sweep(base, SweepAxis.R, lengths).points]
    with pytest.raises(NonFiniteSample) as alone:
        total_forces(rows[bad].spec)
    assert math.isnan(alone.value.value) == (fault == "nan")
    assert str(alone.value).startswith("force component f_" + ("x" if fault == "nan" else "z"))
    assert rows[bad].spec == base._replace(R=lengths[bad]) and not rows[bad].converged
    assert math.isnan(rows[bad].f_x) and math.isnan(rows[bad].f_z)
    assert math.isinf(rows[bad].err_x) and math.isinf(rows[bad].err_z)
    for k, row in enumerate(rows):
        if k != bad:
            assert row == total_forces(row.spec)


def test_profile_samples_match_one_point_calls():
    # each sample has the bits of a one-point specific_pressures call
    for spec in (reduced_at(3.0), CavitySpec(a=4e-7, R=4e-3, L=1.0, phi=0.7)):
        prof = pressure_profile(spec, 257)
        for s in prof.samples:
            assert s == specific_pressures(spec, s.r)
