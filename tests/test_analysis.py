import math
import re

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
    # phi* falls like 1/(R/a); the geometric prescan resolves it inside a
    # window of most of (0, pi/4), and the search lands within tol of the
    # 40-digit optimum
    tol = 1e-5
    report = optimize_phi(REDUCED._replace(R=ratio), 1e-4, math.pi / 4 - 1e-3, tol)
    assert abs(report.phi_star - phi_star) <= tol
    grid = [phi for phi, _ in report.grid_prescan]
    assert grid[0] == 1e-4 and grid[-1] == math.pi / 4 - 1e-3
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) <= 1e-12


def test_optimize_locates_interior_maximum():
    report = optimize_phi(REDUCED, 0.01, math.pi / 4 - 0.02)
    star = report.phi_star
    assert 0.01 < star < math.pi / 4 - 0.02
    assert math.isclose(star, 0.0633, abs_tol=2e-3)
    assert report.f_x_star < 0.0
    assert report.iterations > 0
    assert len(report.grid_prescan) == 32
    assert report.bracket[0] < star < report.bracket[1]

    def mag(phi):
        return abs(total_forces(REDUCED._replace(phi=phi)).f_x)

    assert abs(report.f_x_star) > mag(star / 2)
    assert abs(report.f_x_star) > mag(1.5 * star)


def test_optimize_agrees_with_dense_grid():
    report = optimize_phi(REDUCED, 0.01, math.pi / 4 - 0.02, tol=1e-5)
    lo, hi, n = 0.01, math.pi / 4 - 0.02, 1024
    step = (hi - lo) / (n - 1)
    best, best_mag = lo, -1.0
    for k in range(n):
        phi = lo + k * step
        mag = abs(total_forces(REDUCED._replace(phi=phi), rel_tol=1e-7).f_x)
        if mag > best_mag:
            best, best_mag = phi, mag
    assert abs(report.phi_star - best) <= 2 * step


def test_optimize_halving_tol_is_stable():
    coarse = optimize_phi(REDUCED, 0.02, 0.5, tol=2e-5)
    fine = optimize_phi(REDUCED, 0.02, 0.5, tol=1e-5)
    assert abs(coarse.phi_star - fine.phi_star) <= 3e-5
    assert fine.iterations >= coarse.iterations


def test_optimize_rejects_edge_maximum():
    # both windows sit entirely on the falling flank of |f_x|
    with pytest.raises(NoInteriorMaximum):
        optimize_phi(REDUCED, 0.3, 0.7)
    with pytest.raises(NoInteriorMaximum):
        optimize_phi(REDUCED, 0.7, 0.75)


def test_optimize_rejects_flat_and_multimodal_objectives(monkeypatch):
    shapes = {"flat": lambda phi: 1.0, "wavy": lambda phi: math.sin(40.0 * phi)}
    for shape in shapes.values():
        fake = lambda base, angles, shape=shape: [shape(phi) for phi in angles]
        monkeypatch.setattr(trapcav.analysis, "expulsion", fake)
        with pytest.raises(NoInteriorMaximum):
            optimize_phi(REDUCED, 0.05, 0.7)


@pytest.mark.parametrize(
    "lo,hi,tol",
    [
        (0.0, 0.5, 1e-5),
        (-0.1, 0.5, 1e-5),
        (0.5, 0.1, 1e-5),
        (0.1, math.pi / 4, 1e-5),
        (0.1, 0.5, 1e-7),
    ],
)
def test_optimize_rejects_bad_windows(lo, hi, tol):
    with pytest.raises(ValueError):
        optimize_phi(REDUCED, lo, hi, tol=tol)


def test_optimize_refuses_infinite_tol():
    with pytest.raises(ValueError, match="finite"):
        optimize_phi(REDUCED, 0.1, 0.5, tol=math.inf)


def test_optimize_validates_base_spec():
    with pytest.raises(InvalidCavity):
        optimize_phi(CavitySpec(a=-1.0, R=1.0, L=1.0, phi=0.0), 0.05, 0.5)


@pytest.mark.parametrize("rel_tol", [1e-20, math.inf])
def test_optimize_refuses_rel_tol_before_any_force(monkeypatch, rel_tol):
    def no_forces(*args, **kwargs):
        raise AssertionError("a force ran")

    monkeypatch.setattr(trapcav.analysis, "expulsion", no_forces)
    message = f"rel_tol must be at least {REL_TOL_FLOOR!r} and finite, got {rel_tol!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize_phi(REDUCED, 0.01, 0.5, rel_tol=rel_tol)


def test_optimize_raises_the_first_non_finite_force():
    # K L / a^3 overflows at a = 1e-120 m, so the first prescan angle's
    # f_x is -inf, reported with the wing length as total_forces does
    spec = CavitySpec(a=1e-120, R=4e-120, L=1.0, phi=0.0)
    with pytest.raises(NonFiniteSample, match="force component f_x is -inf") as info:
        optimize_phi(spec, 0.01, 0.5)
    assert info.value.x == 4e-120 and info.value.value == -math.inf
    with pytest.raises(NonFiniteSample) as alone:
        total_forces(spec._replace(phi=0.01))
    assert str(alone.value) == str(info.value)


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


def spy_batches(monkeypatch):
    # the (phi, f_x) samples of every objective call that optimize_phi
    # makes, one list per call, in order; a lone total_forces call or a
    # ForceResult made by forces._forces fails the test
    batches, objective = [], trapcav.analysis.expulsion

    def spy(base, angles):
        values = objective(base, angles)
        batches.append(list(zip(angles, values)))
        return values

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize_phi made a ForceResult")

    monkeypatch.setattr(trapcav.analysis, "expulsion", spy)
    monkeypatch.setattr(trapcav.analysis, "total_forces", forbidden)
    monkeypatch.setattr(trapcav.analysis, "_forces", forbidden)
    return batches


def final_bracket(batches, phi_star):
    # the best sample's nearest sampled neighbours
    phis = sorted(phi for rows in batches for phi, _ in rows)
    k = phis.index(phi_star)
    return phis[k - 1], phis[k + 1]


def lone_f_x(base, phi):
    # the bits of a lone total_forces f_x, as a comparable string
    return total_forces(base._replace(phi=phi)).f_x.hex()


def test_prescan_and_counters_equal_lone_total_forces(monkeypatch):
    batches = spy_batches(monkeypatch)
    base = REDUCED._replace(R=30.0)
    report = optimize_phi(base, 0.005, 0.6)
    prescan, *rounds = batches
    assert len(prescan) == len(report.grid_prescan) == 32
    assert prescan == list(report.grid_prescan)
    for rows in batches:
        assert all(f_x.hex() == lone_f_x(base, phi) for phi, f_x in rows)
    # one objective call of at most three angles per refinement round
    assert len(rounds) == report.iterations > 0
    assert all(1 <= len(rows) <= 3 for rows in rounds)
    assert report.force_calls == 32 + sum(len(rows) for rows in rounds)
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
    # reduced and SI units; every sample, the prescan and the optimum
    # carry the bits of a lone total_forces at their angle
    ratio = 10.0**log_ratio
    if log_gap is None:
        base = CavitySpec(a=1.0, R=ratio, L=1.0, phi=0.0, units=Units.REDUCED)
    else:
        a = 10.0**log_gap
        base = CavitySpec(a=a, R=a * ratio, L=2e-3, phi=0.0)
    hi = min(lo * span, 0.78)
    with pytest.MonkeyPatch.context() as monkeypatch:
        batches = spy_batches(monkeypatch)
        try:
            report = optimize_phi(base, lo, hi)
        except NoInteriorMaximum:
            report = None
    for rows in batches:
        assert all(f_x.hex() == lone_f_x(base, phi) for phi, f_x in rows)
    if report is None:
        # the prescan ran and found no single interior peak
        assert len(batches) == 1 and len(batches[0]) == 32
        return
    assert [(phi, f_x.hex()) for phi, f_x in report.grid_prescan] == [
        (phi, lone_f_x(base, phi)) for phi, _ in report.grid_prescan
    ]
    samples = sorted(phi for rows in batches for phi, _ in rows)
    mags = [abs(total_forces(base._replace(phi=phi)).f_x) for phi in samples]
    assert report.phi_star == samples[mags.index(max(mags))]
    assert report.f_x_star.hex() == lone_f_x(base, report.phi_star)
    assert report.force_calls == len(samples)


WINDOW = (math.radians(0.5), math.radians(20.0))


@pytest.mark.parametrize("ratio", [1.0, 4.0, 10.0, 100.0])
def test_optimize_refines_in_few_small_batches(monkeypatch, ratio):
    batches = spy_batches(monkeypatch)
    report = optimize_phi(REDUCED._replace(R=ratio), *WINDOW, tol=1e-5)
    _, *rounds = batches
    assert 1 <= len(rounds) == report.iterations <= 8
    assert all(1 <= len(rows) <= 3 for rows in rounds)
    left, right = final_bracket(batches, report.phi_star)
    assert right - left < 1e-5
    best = max((abs(f_x), phi) for rows in batches for phi, f_x in rows)
    assert best == (abs(report.f_x_star), report.phi_star)


@pytest.mark.parametrize("ratio", [1.0, 3.0, 10.0, 30.0, 100.0])
def test_optimize_matches_bounded_scipy_reference(ratio):
    pytest.importorskip("scipy")
    from scipy.optimize import minimize_scalar

    base = REDUCED._replace(R=ratio)
    report = optimize_phi(base, *WINDOW, tol=1e-5)
    ref = minimize_scalar(
        lambda phi: -abs(total_forces(base._replace(phi=phi), rel_tol=1e-12).f_x),
        bounds=report.bracket,
        method="bounded",
        options={"xatol": 1e-9},
    )
    assert ref.success
    assert abs(report.phi_star - ref.x) <= 2.5e-6
    assert report.iterations <= 8


# unimodal |f_x| shapes that parabolas fit badly, each peaking at phi = p
BAD_PEAKS = {
    "cusp": lambda phi, p: 2.0 - abs(phi - p) ** 0.5,
    "lopsided kink": lambda phi, p: math.exp(phi - p if phi < p else 300.0 * (p - phi)),
    "lopsided smooth": lambda phi, p: (phi / p) ** 12 * math.exp(12.0 * (1.0 - phi / p)),
}


@pytest.mark.parametrize("shape", sorted(BAD_PEAKS))
@pytest.mark.parametrize("peak", [0.1234567, 0.3010299, 0.5])
def test_refinement_safeguard_keeps_shrinking(monkeypatch, shape, peak):
    def fake_objective(base, angles):
        return [-BAD_PEAKS[shape](phi, peak) for phi in angles]

    monkeypatch.setattr(trapcav.analysis, "expulsion", fake_objective)
    batches = spy_batches(monkeypatch)
    lo, hi, tol = 0.05, 0.7, 1e-6
    report = optimize_phi(REDUCED, lo, hi, tol=tol)
    left, right = final_bracket(batches, report.phi_star)
    assert right - left < tol
    assert left < peak < right
    # a round that does not halve the bracket is followed by one that
    # leaves at most 5/8 of it, so every two rounds shrink it by 5/8
    start = report.bracket[1] - report.bracket[0]
    assert report.iterations <= 2 * (math.floor(math.log(start / tol) / math.log(8 / 5)) + 1)
    assert all(len(rows) <= 3 for rows in batches[1:])
