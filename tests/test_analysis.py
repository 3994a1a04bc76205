import math

import numpy as np
import pytest

from trapcav import (
    CavitySpec,
    ForceResult,
    InvalidCavity,
    NoInteriorMaximum,
    SweepAxis,
    Units,
    optimize_phi,
    rescale_report,
    sweep,
    total_forces,
)
import trapcav.analysis
from trapcav.quadrature import REL_TOL_FLOOR

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
    def fake_forces(kind):
        def inner(spec, rel_tol=1e-9, **kwargs):
            phi = spec.phi
            f_x = 1.0 if kind == "flat" else math.sin(40.0 * phi)
            return ForceResult(
                spec=spec, f_x=f_x, f_z=-1.0, err_x=0.0, err_z=0.0
            )

        return inner

    for kind in ("flat", "wavy"):
        fake = fake_forces(kind)
        batch = lambda specs, rel_tol=1e-9, **kwargs: [fake(s, rel_tol) for s in specs]
        monkeypatch.setattr(trapcav.analysis, "total_forces", fake)
        monkeypatch.setattr(trapcav.analysis, "force_batch", batch)
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


def test_rescale_identity():
    report = rescale_report(SI_THIN, 1.0)
    assert report.force_ratio_z == 1.0
    assert report.pressure_ratio_z == 1.0
    assert report.max_rel_deviation == 0.0


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_rescale_follows_dimensional_analysis(lam):
    report = rescale_report(SI_THIN, lam)
    assert math.isclose(report.force_ratio_z, lam**-3, rel_tol=1e-12)
    assert math.isclose(report.force_ratio_x, lam**-3, rel_tol=1e-9)
    assert math.isclose(report.pressure_ratio_z, lam**-4, rel_tol=1e-12)
    assert math.isclose(report.pressure_ratio_x, lam**-4, rel_tol=1e-9)
    assert report.max_rel_deviation < 1e-9
    assert report.expected_force_ratio == lam**-3
    assert report.expected_pressure_ratio == lam**-4


def test_rescale_parallel_plates_excludes_vanishing_force():
    # the x force is cancellation noise at phi = 0 and must be excluded;
    # the x pressure at r = R/3 is a genuine value and must not be
    for lam in (2.0, 10.0):
        report = rescale_report(SI_THIN._replace(phi=0.0), lam)
        assert math.isnan(report.force_ratio_x)
        assert math.isclose(report.pressure_ratio_x, lam**-4, rel_tol=1e-9)
        assert math.isclose(report.force_ratio_z, lam**-3, rel_tol=1e-10)
        assert report.max_rel_deviation < 1e-9


def test_rescale_accepts_reduced_input():
    reduced = REDUCED._replace(phi=math.radians(2.0))
    report = rescale_report(reduced, 2.0)
    assert math.isclose(report.force_ratio_x, 0.125, rel_tol=1e-9)


@pytest.mark.parametrize("lam", [0.0, -2.0, math.inf, math.nan])
def test_rescale_rejects_bad_scale(lam):
    with pytest.raises(ValueError):
        rescale_report(SI_THIN, lam)


@pytest.mark.parametrize(
    "gap, lam",
    [
        (4e-7, 1e110),  # lam**-3 underflows to 0
        (1.0, 1e-78),  # lam**-4 overflows
        (1e-6, 1e80),  # lam**-4 is subnormal, and so are the scaled pressures
    ],
)
def test_rescale_refuses_scales_beyond_the_normal_floats(gap, lam, monkeypatch):
    def no_forces(*args, **kwargs):
        raise AssertionError("a force integral ran")

    monkeypatch.setattr(trapcav.analysis, "force_batch", no_forces)
    with pytest.raises(ValueError):
        rescale_report(SI_THIN._replace(a=gap, R=10 * gap), lam)


def force_key(fr):
    # everything a force row reports, so that equal keys mean equal bits
    return (fr.f_x, fr.f_z, fr.err_x, fr.err_z, fr.converged, fr.evaluations)


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
        assert table.evaluations == sum(fr.evaluations for _, fr in table.points)
    lengths = [gap * ratio for ratio in IDENTITY_RATIOS]
    base = CavitySpec(a=gap, R=gap, L=1.0, phi=0.3, units=units)
    for wing_count in (1, 2):
        table = sweep(base, SweepAxis.R, lengths, rel_tol=1e-7, wing_count=wing_count)
        for length, fr in table.points:
            alone = total_forces(base._replace(R=length), 1e-7, wing_count=wing_count)
            assert force_key(fr) == force_key(alone)


def test_sweep_rows_that_stop_equal_lone_total_forces():
    # at the tightest target the shortest wing's rounding bound is too
    # large; unconverged and converged rows alike equal their lone results
    base = CavitySpec(a=1.0, R=1.0, L=1.0, phi=0.5, units=Units.REDUCED)
    lengths = [0.5, 4.0, 60.0, 1e3, 1e4]
    table = sweep(base, SweepAxis.R, lengths, rel_tol=REL_TOL_FLOOR)
    rows = [fr for _, fr in table.points]
    lone = [total_forces(base._replace(R=length), REL_TOL_FLOOR) for length in lengths]
    assert [force_key(fr) for fr in rows] == [force_key(fr) for fr in lone]
    assert any(fr.converged for fr in rows) and not all(fr.converged for fr in rows)


def spy_batches(monkeypatch):
    # every force_batch that optimize_phi makes, in order; a lone
    # total_forces call fails the test
    batches, batch = [], trapcav.analysis.force_batch

    def spy(*args, **kwargs):
        batches.append(batch(*args, **kwargs))
        return batches[-1]

    def lone(*args, **kwargs):
        raise AssertionError("optimize_phi made a lone total_forces call")

    monkeypatch.setattr(trapcav.analysis, "force_batch", spy)
    monkeypatch.setattr(trapcav.analysis, "total_forces", lone)
    return batches


def final_bracket(batches, phi_star):
    # the best sample's nearest sampled neighbours
    phis = sorted(fr.spec.phi for rows in batches for fr in rows)
    k = phis.index(phi_star)
    return phis[k - 1], phis[k + 1]


def test_prescan_and_counters_equal_lone_total_forces(monkeypatch):
    batches = spy_batches(monkeypatch)
    base = REDUCED._replace(R=30.0)
    report = optimize_phi(base, 0.005, 0.6)
    prescan, *rounds = batches
    assert len(prescan) == len(report.grid_prescan) == 32
    for (phi, f_x), fr in zip(report.grid_prescan, prescan):
        alone = total_forces(base._replace(phi=phi))
        assert force_key(fr) == force_key(alone) and f_x == alone.f_x
    # one batch of at most three angles per refinement round
    assert len(rounds) == report.iterations > 0
    assert all(1 <= len(rows) <= 3 for rows in rounds)
    assert report.force_calls == 32 + sum(len(rows) for rows in rounds)
    assert report.evaluations == sum(fr.evaluations for rows in batches for fr in rows)
    assert report.f_x_star == total_forces(base._replace(phi=report.phi_star)).f_x


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
    best = max((abs(fr.f_x), fr.spec.phi) for rows in batches for fr in rows)
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
    def fake_batch(specs, rel_tol=1e-9, **kwargs):
        return [
            ForceResult(spec=s, f_x=-BAD_PEAKS[shape](s.phi, peak), f_z=-3.0, err_x=0.0, err_z=0.0)
            for s in specs
        ]

    monkeypatch.setattr(trapcav.analysis, "force_batch", fake_batch)
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
