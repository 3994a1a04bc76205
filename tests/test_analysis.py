import math
import random
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from trapcav import (
    CavitySpec,
    InvalidCavity,
    NonFiniteSample,
    NoInteriorMaximum,
    SweepAxis,
    Units,
    optimize_phi,
    sweep,
    total_forces,
)
import trapcav.analysis
import trapcav.forces
from trapcav.geometry import REL_TOL_FLOOR, validate

REDUCED = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)
EPS = sys.float_info.epsilon
SI_THIN = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=math.radians(1.0))

PHI_GRID_DEG = [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 30.0, 40.0]

# |f_x| for a = 400 nm, phi = 1 deg, L = 1 m at R = 1, 2, 4, 8 um
FX_BY_R = [1.196e-10, 2.701e-10, 4.694e-10, 6.626e-10]


def test_sweep_over_angle_rises_then_falls():
    values = [math.radians(d) for d in PHI_GRID_DEG]
    table = sweep(REDUCED, SweepAxis.PHI, values)
    assert table.axis is SweepAxis.PHI
    assert [p for p, _ in table.points] == values
    mags = [abs(fr.f_x) for _, fr in table.points]
    peak = mags.index(max(mags))
    assert 0 < peak < len(mags) - 1
    assert all(b > a for a, b in zip(mags[: peak + 1], mags[1 : peak + 1]))
    assert all(b < a for a, b in zip(mags[peak:], mags[peak + 1 :]))
    assert all(fr.converged for _, fr in table.points)


def test_sweep_single_parallel_plate_row():
    table = sweep(REDUCED, SweepAxis.PHI, [0.0])
    ((param, fr),) = table.points
    assert param == 0.0
    assert abs(fr.f_x) <= 1e-10 * abs(fr.f_z)


def test_sweep_over_radius_grows_expulsion():
    values = [1e-6, 2e-6, 4e-6, 8e-6]
    table = sweep(SI_THIN, SweepAxis.R, values)
    mags = [abs(fr.f_x) for _, fr in table.points]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    for got, expect in zip(mags, FX_BY_R):
        assert math.isclose(got, expect, rel_tol=1e-3)
    assert all(fr.f_x < 0.0 for _, fr in table.points)


def test_sweep_worker_count_cannot_change_results():
    values = [math.radians(d) for d in (0.5, 1.0, 2.0, 4.0, 8.0, 12.0)]
    serial = sweep(REDUCED, SweepAxis.PHI, values, workers=1)
    threaded = sweep(REDUCED, SweepAxis.PHI, values, workers=8)
    for (_, a), (_, b) in zip(serial.points, threaded.points):
        assert (a.f_x, a.f_z, a.err_x, a.err_z) == (b.f_x, b.f_z, b.err_x, b.err_z)


def test_sweep_rows_are_independent():
    values = [math.radians(d) for d in (0.5, 1.0, 2.0, 4.0)]
    full = sweep(REDUCED, SweepAxis.PHI, values)
    part = sweep(REDUCED, SweepAxis.PHI, [values[1], values[3]])
    assert part.points[0][1].f_x == full.points[1][1].f_x
    assert part.points[1][1].f_z == full.points[3][1].f_z


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep(REDUCED, SweepAxis.PHI, [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep(REDUCED, SweepAxis.PHI, [0.1, 0.1])
    with pytest.raises(ValueError):
        sweep(REDUCED, SweepAxis.PHI, [0.1], workers=0)
    with pytest.raises(InvalidCavity):
        sweep(REDUCED, SweepAxis.R, [-1.0, 1.0])
    with pytest.raises(InvalidCavity):
        # reduced units pin a = 1, so an R sweep keeps working but a
        # phi value outside [0, pi/4) must be rejected up front
        sweep(REDUCED, SweepAxis.PHI, [0.1, 1.0])


def test_sweep_flags_failed_rows():
    # the shortest wing's f_z underflows to 0, which is not a force; the
    # other rows of the same batch are their lone results
    base = REDUCED._replace(phi=math.radians(2.0))
    values = [1e-200, 1.0, 10.0]
    lone = [total_forces(base._replace(R=v)) for v in values[1:]]
    table = sweep(base, SweepAxis.R, values)
    bad, good1, good2 = (fr for _, fr in table.points)
    assert [good1, good2] == lone
    assert not bad.converged
    assert math.isnan(bad.f_x) and math.isnan(bad.f_z)
    assert math.isinf(bad.err_x) and math.isinf(bad.err_z)
    assert table.force_calls == 3


def test_sweep_names_the_first_invalid_row():
    # the rows are checked in order: the first invalid one is named, not
    # the last
    with pytest.raises(InvalidCavity) as info:
        sweep(REDUCED, SweepAxis.PHI, [0.1, 0.9, 1.0])
    assert info.value.field == "phi" and str(info.value).endswith("got 0.9")


def test_an_empty_sweep_checks_only_its_options():
    # with no row there is no cavity to check, not even the base, but a
    # bad rel_tol is still refused
    closed = REDUCED._replace(a=0.0)
    table = sweep(closed, SweepAxis.PHI, [])
    assert table.points == () and table.force_calls == 0 and table.base == closed
    with pytest.raises(ValueError, match="rel_tol must be at least"):
        sweep(closed, SweepAxis.PHI, [], rel_tol=0.0)


def test_sweep_checks_cavities_then_options_then_forces(monkeypatch):
    def no_forces(*args, **kwargs):
        raise AssertionError("a force was computed")

    monkeypatch.setattr(trapcav.forces, "_reduced", no_forces)
    with pytest.raises(InvalidCavity):
        sweep(REDUCED, SweepAxis.PHI, [0.1, 1.0], rel_tol=0.0)
    with pytest.raises(ValueError, match="rel_tol must be at least"):
        sweep(REDUCED, SweepAxis.PHI, [0.1, 0.2], rel_tol=0.0)
    with pytest.raises(ValueError, match="wing_count"):
        sweep(REDUCED, SweepAxis.PHI, [0.1, 0.2], wing_count=3)


@pytest.mark.parametrize("ratio,phi_star", [(16384.0, 3.8028e-4), (65536.0, 1.3756e-4)])
def test_optimize_finds_small_phi_star_on_long_wings(ratio, phi_star):
    # phi* falls like (2 R/a)^(-3/4); the root find in ln phi resolves it
    # inside a window of most of (0, pi/4), to the five digits given
    report = optimize_phi(REDUCED._replace(R=ratio), 1e-4, math.pi / 4 - 1e-3)
    assert abs(report.phi_star - phi_star) <= 5e-5 * phi_star
    assert report.bracket[0] <= report.phi_star <= report.bracket[1]
    assert report.force_calls <= 40


def test_optimize_locates_interior_maximum():
    report = optimize_phi(REDUCED, 0.01, math.pi / 4 - 0.02)
    star = report.phi_star
    assert 0.01 < star < math.pi / 4 - 0.02
    assert math.isclose(star, 0.0633, abs_tol=2e-3)
    assert report.f_x_star < 0.0
    assert report.iterations > 0 and report.force_calls == report.iterations + 3
    # the final bracket has phi* at one end and is 4 eps |ln phi*| wide in ln phi
    left, right = report.bracket
    assert star in (left, right) and left < right
    assert math.log(right) - math.log(left) <= 4.5 * EPS * abs(math.log(star))

    def mag(phi):
        return abs(total_forces(REDUCED._replace(phi=phi)).f_x)

    assert abs(report.f_x_star) > mag(star / 2)
    assert abs(report.f_x_star) > mag(1.5 * star)


def test_optimize_agrees_with_dense_grid():
    report = optimize_phi(REDUCED, 0.01, math.pi / 4 - 0.02)
    lo, hi, n = 0.01, math.pi / 4 - 0.02, 1024
    step = (hi - lo) / (n - 1)
    best, best_mag = lo, -1.0
    for k in range(n):
        phi = lo + k * step
        mag = abs(total_forces(REDUCED._replace(phi=phi), rel_tol=1e-7).f_x)
        if mag > best_mag:
            best, best_mag = phi, mag
    assert abs(report.phi_star - best) <= 2 * step


def test_optimize_rejects_edge_maximum():
    # both windows sit entirely on the falling flank of |f_x|
    with pytest.raises(NoInteriorMaximum):
        optimize_phi(REDUCED, 0.3, 0.7)
    with pytest.raises(NoInteriorMaximum):
        optimize_phi(REDUCED, 0.7, 0.75)


def test_optimize_rejects_flat_and_multimodal_objectives(monkeypatch):
    # d f_x / d phi of objectives that do not rise at lo and fall at hi:
    # flat, wavy with both ends on falling flanks, rising and falling
    # throughout, and not a number
    slopes = {
        "flat": lambda phi: 0.0,
        "wavy": lambda phi: -40.0 * math.cos(40.0 * phi),
        "rising": lambda phi: -1.0,
        "falling": lambda phi: 1.0,
        "nan": lambda phi: math.nan,
    }
    for slope in slopes.values():
        monkeypatch.setattr(trapcav.analysis, "_dfx_dphi", lambda rho, phi, slope=slope: slope(phi))
        with pytest.raises(NoInteriorMaximum):
            optimize_phi(REDUCED, 0.05, 0.7)


def test_optimize_rejects_a_peak_within_rounding_of_the_window_edge():
    # a window of two adjacent floats across the root holds no angle
    # strictly inside it, so no phi* can be returned
    rho, star = REDUCED.R, optimize_phi(REDUCED, 0.01, 0.5).phi_star
    lo = star
    while trapcav.analysis._dfx_dphi(rho, lo) >= 0.0:
        lo = math.nextafter(lo, 0.0)
    while trapcav.analysis._dfx_dphi(rho, math.nextafter(lo, 1.0)) < 0.0:
        lo = math.nextafter(lo, 1.0)
    with pytest.raises(NoInteriorMaximum, match="within rounding of the window edge"):
        optimize_phi(REDUCED, lo, math.nextafter(lo, 1.0))


@pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (-0.1, 0.5), (0.5, 0.1), (0.1, math.pi / 4)])
def test_optimize_rejects_bad_windows(lo, hi):
    with pytest.raises(ValueError, match="need 0 < lo < hi < pi/4"):
        optimize_phi(REDUCED, lo, hi)


def test_optimize_validates_base_spec():
    with pytest.raises(InvalidCavity):
        optimize_phi(CavitySpec(a=-1.0, R=1.0, L=1.0, phi=0.0), 0.05, 0.5)


@pytest.mark.parametrize("rel_tol", [1e-20, math.inf])
def test_optimize_refuses_rel_tol_before_any_force(monkeypatch, rel_tol):
    def no_forces(*args, **kwargs):
        raise AssertionError("a force ran")

    monkeypatch.setattr(trapcav.analysis, "_dfx_dphi", no_forces)
    monkeypatch.setattr(trapcav.analysis, "_reduced", no_forces)
    message = f"rel_tol must be at least {REL_TOL_FLOOR!r} and finite, got {rel_tol!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize_phi(REDUCED, 0.01, 0.5, rel_tol=rel_tol)


def test_optimize_raises_the_first_non_finite_force():
    # K L / a^3 overflows at a = 1e-120 m; the derivative is scale-free, so
    # the root is found, and f_x at phi*, the one scaled call, is -inf,
    # reported with the wing length as total_forces does
    spec = CavitySpec(a=1e-120, R=4e-120, L=1.0, phi=0.0)
    with pytest.raises(NonFiniteSample, match="force component f_x is -inf") as info:
        optimize_phi(spec, 0.01, 0.5)
    assert info.value.x == 4e-120 and info.value.value == -math.inf
    with pytest.raises(NonFiniteSample) as alone:
        total_forces(spec._replace(phi=0.01))
    assert str(alone.value) == str(info.value)


@pytest.mark.parametrize("ratio, phi_star", [(1e-60, 0.6154797086703873), (1e-76, 0.6154797086703874)])
def test_optimize_keeps_its_bits_on_short_wings(ratio, phi_star):
    # d f_x / d phi shrinks like (R/a)^4, and its terms stay normal floats
    # down to about R/a 1e-77
    assert optimize_phi(REDUCED._replace(R=ratio), 0.1, 0.78).phi_star == phi_star


@pytest.mark.parametrize("ratio", [1e-80, 1e-100])
def test_optimize_refuses_a_subnormal_derivative(ratio):
    # below about R/a 1e-77 the derivative's terms are subnormal (R/a
    # 1e-80, where phi* once read 0.615667) or 0 (R/a 1e-100, once a
    # NoInteriorMaximum), so the sign that the root find reads is noise
    with pytest.raises(NonFiniteSample, match="slope df_x/dphi is .* at phi=0.1; its terms") as info:
        optimize_phi(REDUCED._replace(R=ratio), 0.1, 0.78)
    assert info.value.x == 0.1 and abs(info.value.value) < sys.float_info.min


def force_key(fr):
    # everything a force row reports, so that equal keys mean equal bits
    return (fr.f_x, fr.f_z, fr.err_x, fr.err_z, fr.converged)


IDENTITY_PHIS = [0.0, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.78]
IDENTITY_RATIOS = [1e-3, 0.1, 1.0, 10.0, 1e3, 1e5]


@pytest.mark.parametrize("gap,units", [(1.0, Units.REDUCED), (4e-7, Units.SI)])
def test_sweep_rows_equal_lone_total_forces(gap, units):
    # every row of a batched sweep is the lone total_forces of its cavity,
    # bit for bit, over eight decades of R/a and the whole phi range
    for k, ratio in enumerate(IDENTITY_RATIOS):
        base = CavitySpec(a=gap, R=gap * ratio, L=1.0, phi=0.0, units=units)
        wing_count = 1 + k % 2
        table = sweep(base, SweepAxis.PHI, IDENTITY_PHIS, wing_count=wing_count)
        for phi, fr in table.points:
            alone = total_forces(base._replace(phi=phi), wing_count=wing_count)
            assert force_key(fr) == force_key(alone)
        assert table.force_calls == len(IDENTITY_PHIS)
    lengths = [gap * ratio for ratio in IDENTITY_RATIOS]
    base = CavitySpec(a=gap, R=gap, L=1.0, phi=0.3, units=units)
    for wing_count in (1, 2):
        table = sweep(base, SweepAxis.R, lengths, rel_tol=1e-7, wing_count=wing_count)
        for length, fr in table.points:
            alone = total_forces(base._replace(R=length), 1e-7, wing_count=wing_count)
            assert force_key(fr) == force_key(alone)


def test_sweep_rows_that_stop_equal_lone_total_forces():
    # at the tightest target every row converges, the shortest wing's too,
    # whose three-ray bound once stopped it: the rounding bound is 32 eps
    # of each component, inside the floor's 50; every row equals its lone
    # result
    base = CavitySpec(a=1.0, R=1.0, L=1.0, phi=0.5, units=Units.REDUCED)
    lengths = [0.5, 4.0, 60.0, 1e3, 1e4]
    table = sweep(base, SweepAxis.R, lengths, rel_tol=REL_TOL_FLOOR)
    rows = [fr for _, fr in table.points]
    lone = [total_forces(base._replace(R=length), REL_TOL_FLOOR) for length in lengths]
    assert [force_key(fr) for fr in rows] == [force_key(fr) for fr in lone]
    assert all(fr.converged for fr in rows)


PHI_EDGE = math.nextafter(math.pi / 4, 0.0)


@st.composite
def sweep_cases(draw):
    # a base cavity in either unit system, an axis and a strictly
    # increasing grid along it, which holds an invalid value in about half
    # of the cases: phi outside [0, pi/4), or R not positive and finite
    if draw(st.booleans()):
        gap, L, units = 1.0, 1.0, Units.REDUCED
    else:
        gap, L, units = 10.0 ** draw(st.floats(-9.0, -5.0)), 1e-3, Units.SI
    ratio = st.floats(-9.0, 6.0).map(lambda e: 10.0**e)
    phi = st.one_of(st.sampled_from([0.0, PHI_EDGE]), st.floats(0.0, math.pi / 4, exclude_max=True))
    axis = draw(st.sampled_from(SweepAxis))
    if axis is SweepAxis.PHI:
        valid = phi
        invalid = st.one_of(st.floats(-1.0, 0.0, exclude_max=True), st.floats(math.pi / 4, 2.0), st.just(math.inf))
    else:
        valid = ratio.map(lambda r: gap * r)
        invalid = st.one_of(st.floats(-1.0, 0.0).map(lambda v: gap * v), st.just(math.inf))
    values = st.one_of(valid, invalid) if draw(st.booleans()) else valid
    grid = sorted(draw(st.lists(values, min_size=1, max_size=8, unique=True)))
    base = CavitySpec(gap, gap * draw(ratio), L, draw(phi), units)
    return base, axis, grid


def row_spec(base, axis, value):
    return base._replace(phi=value) if axis is SweepAxis.PHI else base._replace(R=value)


@given(
    case=sweep_cases(),
    wing_count=st.sampled_from([1, 2]),
    rel_tol=st.sampled_from([1e-9, REL_TOL_FLOOR]),
)
@example(case=(REDUCED, SweepAxis.R, [1e-9, 0.25, math.nextafter(0.25, 1.0), 1e6]), wing_count=2, rel_tol=1e-9)
@example(case=(SI_THIN, SweepAxis.PHI, [0.0, 0.3, PHI_EDGE]), wing_count=1, rel_tol=REL_TOL_FLOOR)
@example(case=(REDUCED, SweepAxis.PHI, [0.1, 0.9, 1.0]), wing_count=1, rel_tol=1e-9)
@settings(max_examples=300, deadline=None)
def test_sweep_rows_keep_the_bits_and_errors_of_lone_calls(case, wing_count, rel_tol):
    # valid end rows prove the whole grid valid: a grid with an invalid
    # value raises what validating its rows in order raises, and every row
    # of a valid grid has the bits of its lone total_forces, or is flagged
    # where that call raises
    base, axis, values = case
    specs = [row_spec(base, axis, v) for v in values]
    first_error = None
    for spec in specs:
        try:
            validate(spec)
        except InvalidCavity as err:
            first_error = err
            break
    if first_error is not None:
        with pytest.raises(InvalidCavity) as info:
            sweep(base, axis, values, rel_tol=rel_tol, wing_count=wing_count)
        assert (info.value.field, str(info.value)) == (first_error.field, str(first_error))
        return
    table = sweep(base, axis, values, rel_tol=rel_tol, wing_count=wing_count)
    bits = lambda fr: (fr.spec, fr.f_x.hex(), fr.f_z.hex(), fr.err_x.hex(), fr.err_z.hex(), fr.wing_count, fr.converged)
    assert [v for v, _ in table.points] == values
    for spec, (_, row) in zip(specs, table.points):
        try:
            alone = total_forces(spec, rel_tol, wing_count=wing_count)
        except NonFiniteSample:
            assert row.spec == spec and not row.converged and math.isnan(row.f_x)
        else:
            assert bits(row) == bits(alone)


def spy_slopes(monkeypatch):
    # the (phi, d f_x / d phi) of every derivative evaluation that
    # optimize_phi makes, in order; a lone total_forces call or a
    # ForceResult made by forces._forces fails the test
    samples, slope = [], trapcav.analysis._dfx_dphi

    def spy(rho, phi):
        value = slope(rho, phi)
        samples.append((phi, value))
        return value

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize_phi made a ForceResult")

    monkeypatch.setattr(trapcav.analysis, "_dfx_dphi", spy)
    monkeypatch.setattr(trapcav.analysis, "total_forces", forbidden)
    monkeypatch.setattr(trapcav.analysis, "_forces", forbidden)
    return samples


def lone_f_x(base, phi):
    # the bits of a lone total_forces f_x, as a comparable string
    return total_forces(base._replace(phi=phi)).f_x.hex()


def test_optimum_and_counters_equal_lone_total_forces(monkeypatch):
    samples = spy_slopes(monkeypatch)
    base = REDUCED._replace(R=30.0)
    report = optimize_phi(base, 0.005, 0.6)
    # the window's ends first, then one angle per step of the root finder
    assert [phi for phi, _ in samples[:2]] == [0.005, 0.6]
    assert len(samples) == report.iterations + 2 and report.force_calls == len(samples) + 1
    assert report.phi_star in [phi for phi, _ in samples[2:]]
    assert report.f_x_star.hex() == lone_f_x(base, report.phi_star)


@given(
    log_ratio=st.floats(math.log10(0.05), 4.0),
    log_gap=st.one_of(st.none(), st.floats(-12.0, -3.0)),
    lo=st.floats(1e-4, 0.3),
    span=st.floats(1.5, 1e3),
)
@settings(max_examples=150, deadline=None)
# a located optimum on either side of R/a = 1/4, in either unit system
@example(log_ratio=-1.0, log_gap=None, lo=1e-3, span=780.0)
@example(log_ratio=-1.0, log_gap=-6.4, lo=0.2, span=3.9)
@example(log_ratio=math.log10(30.0), log_gap=None, lo=5e-3, span=120.0)
@example(log_ratio=math.log10(30.0), log_gap=-8.5, lo=5e-3, span=120.0)
def test_optimum_equals_lone_total_forces_on_both_formulas(log_ratio, log_gap, lo, span):
    # R/a 0.05..1e4, across R/a = 1/4 where two formulas once met, in
    # reduced and SI units: a window whose ends show |f_x| rising then
    # falling holds an optimum, whose f_x has the bits of a lone
    # total_forces there and whose bracket holds the sign change
    ratio = 10.0**log_ratio
    if log_gap is None:
        base = CavitySpec(a=1.0, R=ratio, L=1.0, phi=0.0, units=Units.REDUCED)
    else:
        a = 10.0**log_gap
        base = CavitySpec(a=a, R=a * ratio, L=2e-3, phi=0.0)
    hi = min(lo * span, 0.78)
    rho = base.R / base.a
    with pytest.MonkeyPatch.context() as monkeypatch:
        samples = spy_slopes(monkeypatch)
        try:
            report = optimize_phi(base, lo, hi)
        except NoInteriorMaximum:
            report = None
    (_, d_lo), (_, d_hi) = samples[:2]
    assert samples[:2] == [(lo, trapcav.analysis._dfx_dphi(rho, lo)), (hi, trapcav.analysis._dfx_dphi(rho, hi))]
    if report is None:
        # only the ends ran, and they show no rise then fall
        assert len(samples) == 2 and not d_lo < 0.0 < d_hi
        return
    assert d_lo < 0.0 < d_hi and lo < report.phi_star < hi
    left, right = report.bracket
    assert trapcav.analysis._dfx_dphi(rho, left) <= 0.0 <= trapcav.analysis._dfx_dphi(rho, right)
    assert report.force_calls == len(samples) + 1 <= 40
    assert report.f_x_star.hex() == lone_f_x(base, report.phi_star)


WINDOW = (math.radians(0.5), math.radians(20.0))


@pytest.mark.parametrize("ratio", [1.0, 4.0, 10.0, 100.0])
def test_optimize_refines_in_few_small_batches(monkeypatch, ratio):
    # the analysis benchmark's window: one angle per step, at most 30
    # closed-form evaluations in all, and a bracket 4 eps |ln phi*| wide
    samples = spy_slopes(monkeypatch)
    report = optimize_phi(REDUCED._replace(R=ratio), *WINDOW)
    assert 1 <= report.iterations == len(samples) - 2
    assert report.force_calls <= 30
    left, right = report.bracket
    assert math.log(right) - math.log(left) <= 4.5 * EPS * abs(math.log(report.phi_star))


@pytest.mark.parametrize("ratio", [1.0, 3.0, 10.0, 30.0, 100.0])
def test_optimize_matches_bounded_scipy_reference(ratio):
    pytest.importorskip("scipy")
    from scipy.optimize import minimize_scalar

    # a search on |f_x| values, which resolves the flat peak only to about
    # the square root of eps, over the whole window
    base = REDUCED._replace(R=ratio)
    report = optimize_phi(base, *WINDOW)
    ref = minimize_scalar(
        lambda phi: -abs(total_forces(base._replace(phi=phi), rel_tol=1e-12).f_x),
        bounds=WINDOW,
        method="bounded",
        options={"xatol": 1e-9},
    )
    assert ref.success
    assert abs(report.phi_star - ref.x) <= 1e-7
    assert report.force_calls <= 30


# d f_x / d phi of unimodal |f_x| shapes that interpolation fits badly,
# each peaking at phi = p: a cusp, a kink and a lopsided smooth peak
BAD_PEAKS = {
    "cusp": lambda phi, p: math.copysign(0.5 / math.sqrt(abs(phi - p)), phi - p) if phi != p else 0.0,
    "lopsided kink": lambda phi, p: -math.exp(phi - p) if phi < p else 300.0 * math.exp(300.0 * (p - phi)),
    "lopsided smooth": lambda phi, p: 12.0 * (1.0 / p - 1.0 / phi) * (phi / p) ** 12 * math.exp(12.0 * (1.0 - phi / p)),
}


@pytest.mark.parametrize("shape", sorted(BAD_PEAKS))
@pytest.mark.parametrize("peak", [0.1234567, 0.3010299, 0.5])
def test_refinement_safeguard_keeps_shrinking(monkeypatch, shape, peak):
    monkeypatch.setattr(trapcav.analysis, "_dfx_dphi", lambda rho, phi: BAD_PEAKS[shape](phi, peak))
    lo, hi = 0.05, 0.7
    report = optimize_phi(REDUCED, lo, hi)
    left, right = report.bracket
    assert left <= peak <= right
    assert math.log(right) - math.log(left) <= 4.5 * EPS * abs(math.log(peak))
    # Brent's safeguard bisects whenever interpolation does not shrink the
    # steps fast enough, so the steps are at most twice as many as those of
    # bisection down to the final bracket width
    bisections = math.ceil(math.log2(math.log(hi / lo) / (4.0 * EPS * abs(math.log(hi)))))
    assert report.iterations <= 2 * bisections


def _f_x_moments(rho, phi):
    # the reduced f_x of the moment form, in mpmath
    c, s = mpmath.cos(phi), mpmath.sin(phi)
    U = c * rho / (1 + s * rho)
    Q = mpmath.sqrt(1 + U * U)
    q = Q - 1
    a0 = q**2 * (2 * Q**2 + 2 * Q + 1) / Q**3
    a1 = U**5 / Q**3
    a2 = q**3 * (2 * Q**3 + 6 * Q**2 + 9 * Q + 3) / (3 * Q**3)
    v = (1 + 2 * s * rho) ** -3
    return -s * ((1 + v) * (c * c * a0 + s * s * a2) - 2 * c * s * (1 - v) * a1) / (15 * c**4)


def _root_60(rho, guess):
    # the root of mpmath's numerical d f_x / d phi at 60 digits, near guess
    with mpmath.workdps(60):
        rho = mpmath.mpf(rho)
        slope = lambda t: mpmath.diff(lambda phi: _f_x_moments(rho, phi), mpmath.exp(t))
        return mpmath.exp(mpmath.findroot(slope, mpmath.log(guess)))


# (R/a, window, largest relative error of phi*): a few eps where the
# derivative keeps its digits, and on long wings the derivative's own
# resolution, whose terms cancel to about (s^2 rho)^-1 of their size
ROOT_CASES = [
    *((ratio, (1e-14, 0.78), 32 * EPS) for ratio in (1e-2, 0.3, 4.0, 100.0, 1e3)),
    (4.0, WINDOW, 32 * EPS),
    (1e3, (1e-4, 0.5), 32 * EPS),
    *((ratio, (1e-14, 0.78), 1e-11) for ratio in (1e4, 65536.0, 1e6)),
    (1e6, (1e-8, 1e-4), 1e-11),
    (1e12, (1e-14, 0.78), 1e-7),
    (1e12, (math.radians(5.7e-11), math.radians(5.7e-5)), 1e-7),
]


@pytest.mark.parametrize("ratio,window,gate", ROOT_CASES)
def test_phi_star_is_the_60_digit_root(ratio, window, gate):
    report = optimize_phi(REDUCED._replace(R=ratio), *window)
    ref = _root_60(ratio, report.phi_star)
    assert abs(report.phi_star - ref) <= gate * ref
    assert report.force_calls <= 40


def test_phi_star_follows_the_long_wing_law():
    # phi^4 = 1 / (8 rho^3) maximizes 2/45 - (2/15) phi - 1 / (180 (rho phi)^3)
    rho = 1e12
    report = optimize_phi(REDUCED._replace(R=rho), 1e-14, 0.78)
    assert abs(report.phi_star * (2.0 * rho) ** 0.75 - 0.99916) <= 1e-4


def test_derivative_changes_sign_once():
    # the unimodality that a sign change across the window relies on, on a
    # seeded sample: 25 R/a values, one drawn in each of 25 equal cells of
    # log R/a over 1e-3..1e12, and 400 log-spaced angles in 1e-14..0.785
    rng = random.Random(20120101)
    phis = [1e-14 * (0.785 / 1e-14) ** (k / 399) for k in range(400)]
    for cell in range(25):
        rho = 10.0 ** (-3.0 + 15.0 * (cell + rng.random()) / 25)
        slopes = [trapcav.analysis._dfx_dphi(rho, phi) for phi in phis]
        assert all(math.isfinite(d) and d != 0.0 for d in slopes), rho
        signs = [d > 0.0 for d in slopes]
        assert signs[0] is False and signs[-1] is True, rho
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1, rho
