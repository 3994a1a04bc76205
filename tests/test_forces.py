import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    CavitySpec,
    DegenerateFan,
    InvalidCavity,
    NonFiniteSample,
    NotConverged,
    Units,
    pairwise_sum,
    pressure_profile,
    specific_pressures,
    total_forces,
)
import trapcav.forces
from trapcav.quadrature import REL_TOL_FLOOR

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
    return replace(REDUCED, phi=math.radians(deg))


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
    fr = total_forces(replace(REDUCED, R=ratio))
    exact = -16.0 / 15.0 * ratio + 0.4
    assert fr.converged
    assert math.isclose(fr.f_z, exact, rel_tol=1e-12)


def test_error_estimates_are_sane():
    fr = total_forces(reduced_at(2.0))
    assert 0.0 <= fr.err_z <= 1e-6 * abs(fr.f_z)
    assert 0.0 <= fr.err_x <= 1e-6 * abs(fr.f_z)


def test_length_scales_linearly():
    base = total_forces(reduced_at(3.0))
    doubled = total_forces(replace(reduced_at(3.0), L=2.0))
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


def test_tolerance_below_the_error_floor_fails_fast(monkeypatch):
    # every panel estimate is at least REL_TOL_FLOOR of its |integral|, so a
    # tighter target is refused before the kernel runs
    calls = []
    kernel = trapcav.forces.wing_pressures

    def counting(cav, k, r):
        calls.append(1)
        return kernel(cav, k, r)

    monkeypatch.setattr(trapcav.forces, "wing_pressures", counting)
    for rel_tol in (1e-14, 0.5 * REL_TOL_FLOOR, math.nan):
        with pytest.raises(ValueError, match="rel_tol must be at least"):
            total_forces(REDUCED, rel_tol=rel_tol)
        with pytest.raises(ValueError):
            trapcav.forces.force_batch([REDUCED, reduced_at(1.0)], rel_tol)
    assert calls == []
    assert 1.1e-14 < REL_TOL_FLOOR < 1e-14 * 1.12
    fr = total_forces(REDUCED, rel_tol=REL_TOL_FLOOR)
    assert calls and fr.evaluations > 0


def test_non_convergence_is_absorbed(monkeypatch):
    def always_stops(f, intervals, **kwargs):
        return [NotConverged((-0.5, -1.23), (0.01, 0.05), 77) for _ in intervals]

    monkeypatch.setattr(trapcav.forces, "integrate_batch", always_stops)
    fr = total_forces(reduced_at(1.0))
    assert not fr.converged
    assert fr.f_x == -0.5 and fr.f_z == -1.23
    assert fr.err_x == 0.01 and fr.err_z == 0.05
    assert fr.evaluations == 77


def test_each_node_is_evaluated_once(monkeypatch):
    batches = []
    kernel = trapcav.forces.wing_pressures

    def counting(cav, k, r):
        batches.append(np.array(r))
        return kernel(cav, k, r)

    monkeypatch.setattr(trapcav.forces, "wing_pressures", counting)
    spec = replace(reduced_at(1.0), R=1e3)
    fr = total_forces(spec)
    assert fr.converged
    seen = np.concatenate(batches)
    assert len(np.unique(seen)) == len(seen) == fr.evaluations
    # the first call holds every initial panel, each in its own gap
    # between breakpoints
    edges = [0.0, *sorted(trapcav.forces._edge_breakpoints(spec)), spec.R]
    initial = len(edges) - 1
    assert initial > 1
    first = batches[0].reshape(-1, 15)
    assert len(first) == initial
    assert all(lo < p.min() and p.max() < hi for lo, hi, p in zip(edges, edges[1:], first))
    # every later call is a whole number of splits (both halves of each),
    # with the look-ahead in fewer calls than one per split
    splits = (fr.evaluations - 15 * initial) // 30
    assert splits > 1
    assert all(len(b) % 30 == 0 and len(b) > 0 for b in batches[1:])
    assert len(batches) < 1 + splits


def test_infinite_tolerance_is_refused():
    for rel_tol in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="rel_tol must be at least"):
            trapcav.forces.force_batch([REDUCED], rel_tol)
        with pytest.raises(ValueError):
            total_forces(REDUCED, rel_tol=rel_tol)


def test_evaluations_are_reported(monkeypatch):
    fr = total_forces(reduced_at(1.0))
    assert fr.converged and fr.evaluations > 15 and fr.evaluations % 15 == 0
    assert total_forces(reduced_at(1.0), wing_count=2).evaluations == fr.evaluations
    # an integral that stops still reports what it spent: 5 initial panels
    # (breakpoints 1, 4, 6, 9) and 15 splits up to a cap of 20, at a
    # tolerance below the error floor, which force_batch itself refuses
    real = trapcav.forces.integrate_batch
    capped = lambda f, intervals, rel_tol: real(f, intervals, rel_tol=1e-16, max_panels=20)
    monkeypatch.setattr(trapcav.forces, "integrate_batch", capped)
    short = total_forces(reduced_at(1.0))
    assert not short.converged and short.evaluations == 15 * 5 + 30 * 15


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
    spec = replace(reduced_at(1.0), R=1874.971575805314)
    assert spec.R * 100 / 100 > spec.R
    prof = pressure_profile(spec, 101)
    rs = [s.r for s in prof.samples]
    assert rs[-1] == spec.R
    assert rs[:-1] == [spec.R * i / 100 for i in range(100)]


def test_profile_needs_two_samples():
    with pytest.raises(ValueError):
        pressure_profile(REDUCED, 1)


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


def outcome_key(outcome):
    # a force row's every field, or an error's type and message
    if isinstance(outcome, Exception):
        return (type(outcome), str(outcome))
    return (outcome.f_x, outcome.f_z, outcome.err_x, outcome.err_z, outcome.converged, outcome.evaluations)


@pytest.mark.parametrize("fault", ["nan", "raise"])
def test_a_failing_cavity_fails_alone(monkeypatch, fault):
    # the kernel fails on the nodes of one cavity of four, inside the same
    # calls that evaluate the others
    specs = [replace(reduced_at(3.0), R=length) for length in (0.7, 10.0, 300.0, 4e4)]
    healthy = [total_forces(spec) for spec in specs]
    bad_R = specs[2].R
    kernel = trapcav.forces.wing_pressures

    def faulty(cav, k, r):
        hit = np.asarray(cav.R == bad_R) & (r > 0.5 * bad_R)
        if fault == "raise" and hit.any():
            raise DegenerateFan(f"synthetic failure at r={float(r[hit][0])!r}")
        p_x, p_z = kernel(cav, k, r)
        return np.where(hit, np.nan, p_x), p_z

    monkeypatch.setattr(trapcav.forces, "wing_pressures", faulty)
    outcomes = trapcav.forces.force_batch(specs)
    with pytest.raises(NonFiniteSample if fault == "nan" else DegenerateFan) as alone:
        total_forces(specs[2])
    assert outcome_key(outcomes[2]) == outcome_key(alone.value)
    for k in (0, 1, 3):
        assert outcome_key(outcomes[k]) == outcome_key(healthy[k])


def test_profile_samples_match_one_point_calls():
    # one kernel call for the whole profile, with each sample's bits
    for spec in (reduced_at(3.0), CavitySpec(a=4e-7, R=4e-3, L=1.0, phi=0.7)):
        prof = pressure_profile(spec, 257)
        for s in prof.samples:
            assert s == specific_pressures(spec, s.r)
