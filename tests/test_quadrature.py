import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    NonFiniteSample,
    NotConverged,
    QuadratureResult,
    integrate_adaptive,
    pairwise_sum,
)
import trapcav.quadrature
from trapcav.quadrature import _EPS, _WG, _WGK, _XGK, _gk15


def sin5_primitive(u):
    c = math.cos(u)
    return -c + (2.0 / 3.0) * c**3 - 0.2 * c**5


SIN5_FULL = 16.0 / 15.0


def test_adaptive_sin5_over_half_turn():
    q = integrate_adaptive(lambda t: np.sin(t) ** 5, 0.0, math.pi, rel_tol=1e-12)
    assert q.converged
    assert math.isclose(q.value, SIN5_FULL, rel_tol=1e-12)
    assert q.error_estimate <= 1e-12 * q.value
    assert q.method == "gauss-kronrod-7-15"


def test_adaptive_linear_exact():
    q = integrate_adaptive(lambda x: x, 0.0, 1.0, rel_tol=1e-12)
    assert abs(q.value - 0.5) < 1e-12
    assert q.evaluations == 15  # one panel nails a polynomial


def test_adaptive_empty_interval():
    q = integrate_adaptive(np.sin, 2.0, 2.0)
    assert q == QuadratureResult(0.0, 0.0, 0, True)
    pair = integrate_adaptive(lambda t: (np.sin(t), np.cos(t)), 2.0, 2.0)
    assert pair == QuadratureResult((0.0, 0.0), (0.0, 0.0), 0, True)


@pytest.mark.parametrize(
    "kwargs",
    [dict(lo=1.0, hi=0.0), dict(rel_tol=0.0), dict(rel_tol=-1e-9), dict(abs_tol=-1.0)],
)
def test_adaptive_rejects_bad_arguments(kwargs):
    args = dict(lo=0.0, hi=1.0)
    args.update(kwargs)
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, **args)


@pytest.mark.parametrize(
    "f", [lambda x: 1.0, lambda x: x[:-1], lambda x: np.ones((2, 2, len(x)))]
)
def test_adaptive_rejects_misshapen_integrands(f):
    # one value per node, or one row of them per component
    with pytest.raises(ValueError):
        integrate_adaptive(f, 0.0, 1.0)


def test_adaptive_reports_failure_with_best_value():
    # a step cannot be resolved to 1e-14 with only 5 halvings
    step = lambda x: np.where(x < 0.3, 1.0, 0.0)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(step, 0.0, 1.0, rel_tol=1e-14, max_depth=5)
    assert 0.25 < err.value.value < 0.35
    assert err.value.error_estimate > 0.0
    assert err.value.evaluations > 15


def test_adaptive_breakpoints_seed_the_panels():
    # a bump far narrower than [0, 1] and far from every node of one panel
    width = 1e-3
    bump = lambda x: np.exp(-(((x - 0.55) / width) ** 2))
    exact = math.sqrt(math.pi) * width
    blind = integrate_adaptive(bump, 0.0, 1.0, rel_tol=1e-12)
    assert blind.converged and blind.value == 0.0
    seeded = integrate_adaptive(bump, 0.0, 1.0, rel_tol=1e-12, points=(0.549, 0.551))
    assert math.isclose(seeded.value, exact, rel_tol=1e-12)
    # points outside (lo, hi), at its ends, repeated or NaN are ignored
    noisy = (0.551, -1.0, 0.0, 0.549, 1.0, 2.0, math.nan, 0.551)
    assert integrate_adaptive(bump, 0.0, 1.0, rel_tol=1e-12, points=noisy) == seeded
    # one panel per gap between breakpoints
    q = integrate_adaptive(lambda x: x, 0.0, 1.0, points=(0.25, 0.5))
    assert q.evaluations == 45 and abs(q.value - 0.5) < 1e-12


def test_adaptive_panel_cap():
    step = lambda x: np.where(x < 0.3, 1.0, 0.0)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(step, 0.0, 1.0, rel_tol=1e-14, max_panels=8)
    # 7 splits from one seed panel: 15 panels of 15 samples each
    assert 15 < err.value.evaluations <= 15 * 15


def test_adaptive_propagates_non_finite():
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(lambda x: np.full_like(x, math.inf), 0.0, 1.0)
    assert err.value.value == math.inf
    with pytest.raises(NonFiniteSample):
        integrate_adaptive(lambda x: np.full_like(x, math.nan), 2.0, 3.0)


def test_adaptive_vector_integrand():
    rel_tol = 1e-12
    q = integrate_adaptive(
        lambda t: (np.sin(t), np.sin(t) ** 5), 0.0, math.pi, rel_tol=rel_tol
    )
    assert q.converged
    assert isinstance(q.value, tuple) and isinstance(q.error_estimate, tuple)
    assert math.isclose(q.value[0], 2.0, rel_tol=1e-12)
    assert math.isclose(q.value[1], SIN5_FULL, rel_tol=1e-12)
    assert max(q.error_estimate) <= rel_tol * max(abs(v) for v in q.value)
    for bad in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(NonFiniteSample):
            integrate_adaptive(lambda t: np.multiply.outer(bad, np.ones_like(t)), 0.0, 1.0)
    # the component with the largest error picks the panel to split: a
    # zero component beside a right-end singularity changes nothing
    rough = lambda t: np.sqrt(1.0 - t)
    alone = integrate_adaptive(rough, 0.0, 1.0)
    paired = integrate_adaptive(lambda t: (np.zeros_like(t), rough(t)), 0.0, 1.0)
    assert paired.evaluations == alone.evaluations > 15
    assert math.isclose(paired.value[1], alone.value, rel_tol=1e-14)


# integrands and panels of the GK15 reference checks; the integrands work on
# floats and on arrays alike
GK15_CASES = [
    np.sin,
    lambda t: np.sin(t) ** 5,
    np.exp,
    lambda t: 1.0 / (1.0 + 25.0 * t * t),
    lambda t: abs(t - 0.3),
    lambda t: np.cos(40.0 * t),
]
GK15_PANELS = [(0.0, 1.0), (-1.0, 2.0), (0.2, 0.2001), (-3.0, 5.0)]


def gk15_loop(f, lo, hi):
    """Scalar GK15 panel, node pair by node pair: (value, error, resabs)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    pairs = []
    for j in range(7):
        dx = half * _XGK[j]
        f1, f2 = f(center - dx), f(center + dx)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for j, (f1, f2) in enumerate(pairs):
        resasc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, 50.0 * _EPS * resabs), resabs


def test_gk15_matches_loop_reference():
    # the weight-vector panel only reorders the sums: values agree to a few
    # ulps of resabs; the error estimate is a difference of the two rules,
    # so its relative agreement is looser
    for f, g in zip(GK15_CASES, GK15_CASES[1:]):
        for lo, hi in GK15_PANELS:
            refs = [gk15_loop(h, lo, hi) for h in (f, g)]
            (value,), (err,) = _gk15(lambda t: (f(t), g(t)), [lo], [hi])
            for v, e, (rv, re, ra) in zip(value, err, refs):
                assert abs(v - rv) <= 4.0 * _EPS * ra
                assert math.isclose(e, re, rel_tol=1e-4)


def test_gk15_batch_matches_single_panels():
    # one call over m panels gives each panel what a call of its own gives,
    # within the loop-reference bounds above
    los, his = zip(*GK15_PANELS)
    for f in GK15_CASES:
        values, errs = _gk15(f, los, his)
        assert values.shape == errs.shape == (len(los),)
        for v, e, lo, hi in zip(values, errs, los, his):
            (single_v,), (single_e,) = _gk15(f, [lo], [hi])
            resabs = gk15_loop(f, lo, hi)[2]
            assert abs(v - single_v) <= 4.0 * _EPS * resabs
            assert math.isclose(e, single_e, rel_tol=1e-4)
    pairs, pair_errs = _gk15(lambda t: (np.sin(t), np.exp(t)), los, his)
    assert pairs.shape == pair_errs.shape == (len(los), 2)


def test_gk15_names_the_first_non_finite_node_of_a_batch():
    # poles in the second and third of three panels: the second one's is
    # reported, with the value of every component there
    nodes = []

    def poles(t):
        nodes.append(t)
        bad = (t > 1.5) & (t < 2.5)
        return np.where(bad & (t > 2.25), np.inf, 1.0), np.where(bad, np.nan, t)

    with pytest.raises(NonFiniteSample) as err:
        _gk15(poles, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    (t,) = nodes
    first = t[(t > 1.5) & (t < 2.5)][0]
    assert 1.5 < first < 2.0
    assert err.value.x == first
    value = err.value.value
    assert value[0] == 1.0 and math.isnan(value[1])


def rescanning_loop(f, lo, hi, rel_tol=1e-9, max_depth=50, max_panels=10_000):
    """The panel loop without heap or running totals, for a scalar integrand.

    After every split it re-sums all panels in interval order and rescans
    them for the worst (largest error, leftmost among equals).  Returns
    (value, error estimate, evaluations, converged).
    """
    values, errs = _gk15(f, [lo], [hi])
    panels = [(lo, hi, values[0], errs[0], 0)]
    evaluations = 15
    while True:
        total = pairwise_sum([p[2] for p in panels])
        total_err = pairwise_sum([p[3] for p in panels])
        if total_err <= rel_tol * abs(total):
            return total, total_err, evaluations, True
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        p_lo, p_hi, _, _, depth = panels[worst]
        if depth >= max_depth or len(panels) >= max_panels:
            return total, total_err, evaluations, False
        mid = 0.5 * (p_lo + p_hi)
        values, errs = _gk15(f, [p_lo, mid], [mid, p_hi])
        panels[worst : worst + 1] = [
            (p_lo, mid, values[0], errs[0], depth + 1),
            (mid, p_hi, values[1], errs[1], depth + 1),
        ]
        evaluations += 30


def test_heap_matches_a_rescanning_loop(monkeypatch):
    chirp = lambda x: np.sin(1e5 * x * x)
    expect = rescanning_loop(chirp, 0.0, 1.0, max_panels=500)
    assert not expect[3]
    calls = []
    real = trapcav.quadrature.pairwise_sum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trapcav.quadrature, "pairwise_sum", counting)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(chirp, 0.0, 1.0, max_panels=500)
    stop = err.value
    assert (stop.value, stop.error_estimate, stop.evaluations) == expect[:3]
    # 499 splits; the running totals never come near the target, so the
    # panels are summed once, for the reported value and estimate
    assert stop.evaluations == 15 + 30 * 499
    assert len(calls) == 2
    # converging integrals stop at the same split with the same bits, and
    # sum their panels exactly only as they near the target
    cases = [
        (lambda t: np.sqrt(1.0 - t), 1e-12),
        (lambda t: np.sin(1e3 * t * t), 1e-9),
        (lambda t: np.where(t < 0.3, 1.0, 0.0), 1e-9),
    ]
    for f, rel_tol in cases:
        calls.clear()
        q = integrate_adaptive(f, 0.0, 1.0, rel_tol=rel_tol, abs_tol=0.0)
        assert (q.value, q.error_estimate, q.evaluations, True) == rescanning_loop(
            f, 0.0, 1.0, rel_tol
        )
        splits = (q.evaluations - 15) // 30
        assert splits >= 20 and len(calls) <= 10


def test_error_estimate_is_usually_an_upper_bound():
    # 95 percent coverage over randomized subintervals of known integrals
    rng = random.Random(314159)
    ok = total = 0
    cases = [
        (lambda t: np.sin(t) ** 5, sin5_primitive, math.pi),
        (np.sin, lambda u: -math.cos(u), 4.0),
    ]
    for f, primitive, span in cases:
        for _ in range(150):
            u, v = rng.uniform(0.0, span), rng.uniform(0.0, span)
            lo, hi = min(u, v), max(u, v)
            if hi - lo < 1e-6:
                continue
            exact = primitive(hi) - primitive(lo)
            q = integrate_adaptive(f, lo, hi, rel_tol=1e-9)
            total += 1
            ok += abs(q.value - exact) <= q.error_estimate
    assert ok / total >= 0.95


def test_converged_means_tolerance_met():
    for lo, hi in [(0.0, 1.0), (0.2, 2.9), (1.0, 1.5)]:
        q = integrate_adaptive(lambda t: np.exp(-t) * np.sin(7 * t), lo, hi)
        assert q.converged
        assert q.error_estimate <= max(1e-9 * abs(q.value), 1e-300)


def test_pairwise_sum_basics():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5
    assert pairwise_sum([1.0, 2.0, 3.0]) == 6.0
    rows = np.arange(12.0).reshape(3, 4)
    by_row = pairwise_sum(rows, axis=1)
    assert by_row.shape == (3,)
    assert list(by_row) == [6.0, 22.0, 38.0]


def test_pairwise_sum_deterministic_and_chunk_free():
    rng = np.random.default_rng(2718)
    x = rng.standard_normal(10_001) * 1e6
    s1 = pairwise_sum(x)
    s2 = pairwise_sum(list(x))
    assert s1 == s2
    assert s1 == pairwise_sum(x)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=300)
)
@settings(max_examples=200)
def test_pairwise_sum_matches_fsum(xs):
    total = pairwise_sum(xs)
    expect = math.fsum(xs)
    assert math.isclose(total, expect, rel_tol=1e-12, abs_tol=1e-5)


@given(lo=st.floats(0.0, 3.0), width=st.floats(1e-3, 3.0))
@settings(max_examples=100, deadline=None)
def test_adaptive_matches_antiderivative(lo, width):
    # abs_tol keeps windows symmetric about the sine's zero convergent
    hi = lo + width
    q = integrate_adaptive(np.sin, lo, hi, rel_tol=1e-11, abs_tol=1e-12)
    exact = math.cos(lo) - math.cos(hi)
    assert math.isclose(q.value, exact, rel_tol=1e-10, abs_tol=1e-11)
