import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trapcav import (
    NonFiniteSample,
    NotConverged,
    NumericDegeneracy,
    QuadratureResult,
    TrapcavError,
    integrate_adaptive,
    pairwise_sum,
)
import trapcav.quadrature
from trapcav.quadrature import (
    _EPS,
    _WG,
    _WGK,
    _XGK,
    _fixed,
    _gk15,
    _rounded,
    integrate_batch,
)


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


def test_adaptive_overflowing_panels():
    # finite samples whose panel sum lies beyond the float range: the first
    # such panel is named by its center
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(lambda x: np.full_like(x, 1e308), 0.0, 4.0)
    assert (err.value.x, err.value.value) == (2.0, math.inf)
    # finite values, but |f| sums beyond the float range: the estimate is
    # not finite
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(lambda x: np.where(np.arange(x.size) % 2, 1e308, -1e308), 6.0, 8.0)
    assert err.value.x == 7.0 and not math.isfinite(err.value.value)
    # four finite panels whose total overflows: named by the interval's center
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(lambda x: np.full_like(x, 0.8e308), 0.0, 4.0, points=(1.0, 2.0, 3.0))
    assert (err.value.x, err.value.value) == (2.0, math.inf)
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(
            lambda x: (np.ones_like(x), np.full_like(x, -0.8e308)), 0.0, 4.0, points=(1.0, 2.0, 3.0)
        )
    ones, total = err.value.value
    assert math.isclose(ones, 4.0) and total == -math.inf


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
    # one call over m panels gives each panel exactly what a call of its
    # own gives: every panel is reduced on its own, whatever the batch
    los, his = zip(*GK15_PANELS)
    for f in GK15_CASES:
        values, errs = _gk15(f, los, his)
        assert values.shape == errs.shape == (len(los),)
        for v, e, lo, hi in zip(values, errs, los, his):
            (single_v,), (single_e,) = _gk15(f, [lo], [hi])
            assert v == single_v and e == single_e
    pairs, pair_errs = _gk15(lambda t: (np.sin(t), np.exp(t)), los, his)
    assert pairs.shape == pair_errs.shape == (len(los), 2)
    # random panels in batches of every size up to 64, two components
    rng = np.random.default_rng(11)
    lo = rng.uniform(-3.0, 3.0, 64)
    hi = lo + rng.uniform(1e-6, 2.0, 64)
    f = lambda t: (np.sin(3.0 * t) * np.exp(t), 1.0 / (1.0 + t * t))
    values, errs = _gk15(f, lo, hi)
    for m in range(1, 65):
        start = int(rng.integers(0, 65 - m))
        part = _gk15(f, lo[start : start + m], hi[start : start + m])
        assert np.array_equal(part[0], values[start : start + m])
        assert np.array_equal(part[1], errs[start : start + m])


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
    """The panel loop without heap or exact totals, for a scalar integrand.

    After every split it re-sums all panels with ``math.fsum`` and rescans
    them for the worst (largest error, leftmost among equals).  Returns
    (value, error estimate, evaluations, converged).
    """
    values, errs = _gk15(f, [lo], [hi])
    panels = [(lo, hi, values[0], errs[0], 0)]
    evaluations = 15
    while True:
        total = math.fsum(p[2] for p in panels)
        total_err = math.fsum(p[3] for p in panels)
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
    # the exact totals, rounded once, are the fsum of the final panels: the
    # outcome matches a loop that re-sums every panel after each split
    chirp = lambda x: np.sin(1e5 * x * x)
    expect = rescanning_loop(chirp, 0.0, 1.0, max_panels=500)
    assert not expect[3]

    def forbidden(*args, **kwargs):
        raise AssertionError("the adaptive loop called pairwise_sum")

    monkeypatch.setattr(trapcav.quadrature, "pairwise_sum", forbidden)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(chirp, 0.0, 1.0, max_panels=500)
    stop = err.value
    assert (stop.value, stop.error_estimate, stop.evaluations) == expect[:3]
    assert stop.evaluations == 15 + 30 * 499
    # converging integrals stop at the same split with the same bits
    cases = [
        (lambda t: np.sqrt(1.0 - t), 1e-12),
        (lambda t: np.sin(1e3 * t * t), 1e-9),
        (lambda t: np.where(t < 0.3, 1.0, 0.0), 1e-9),
    ]
    for f, rel_tol in cases:
        q = integrate_adaptive(f, 0.0, 1.0, rel_tol=rel_tol, abs_tol=0.0)
        assert (q.value, q.error_estimate, q.evaluations, True) == rescanning_loop(
            f, 0.0, 1.0, rel_tol
        )
        assert (q.evaluations - 15) // 30 >= 20


def outcome_key(outcome):
    # everything an outcome reports, so that equal keys mean equal bits
    if isinstance(outcome, NotConverged):
        return ("stop", outcome.value, outcome.error_estimate, outcome.evaluations)
    if isinstance(outcome, TrapcavError):
        return (type(outcome), str(outcome))
    return ("ok", outcome.value, outcome.error_estimate, outcome.evaluations)


def lone(f, lo, hi, points=(), **kwargs):
    # integrate_adaptive's outcome, returned rather than raised
    try:
        return integrate_adaptive(f, lo, hi, points=points, **kwargs)
    except TrapcavError as err:
        return err


def broken(t):
    raise NumericDegeneracy("synthetic integrand failure")


def test_batch_outcomes_match_lone_integrals():
    # owner 1 returns NaN, owners 2 and 3 cannot converge within the depth
    # limit, owner 4 is empty and owner 6 raises; each gets what it gets
    # alone, and the others their own bits, although all share the
    # integrand's calls
    cases = [
        (lambda t: (np.sin(t), np.cos(3.0 * t)), 0.0, 2.0, ()),
        (lambda t: (np.sin(t), np.where(t < 0.55, t, np.nan)), 0.0, 1.0, ()),
        (lambda t: (np.sqrt(np.abs(t - 0.3)), t * t), 0.0, 1.0, (0.5,)),
        (lambda t: (np.where(t < 0.3, 1.0, 0.0), t), 0.0, 1.0, ()),
        (lambda t: (np.exp(t), t), 2.0, 2.0, ()),
        (lambda t: (np.sin(1e3 * t * t), np.cos(t)), 0.0, 1.0, (0.25, 0.75)),
        (broken, 0.0, 1.0, ()),
    ]
    calls = []

    def f(x, owner):
        calls.append(np.unique(owner).size)
        out = np.empty((2, x.size))
        # each owner's nodes go through its own integrand
        for j in np.unique(owner):
            at = owner == j
            out[:, at] = np.asarray(cases[j][0](x[at]))
        return out

    kwargs = dict(rel_tol=1e-12, max_depth=12)
    got = integrate_batch(f, [case[1:] for case in cases], **kwargs)
    expect = [lone(g, lo, hi, points, **kwargs) for g, lo, hi, points in cases]
    assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
    assert isinstance(got[1], NonFiniteSample) and isinstance(got[3], NotConverged)
    assert isinstance(got[6], NumericDegeneracy)
    assert isinstance(got[0], QuadratureResult) and got[4].evaluations == 0
    assert isinstance(got[5], QuadratureResult) and isinstance(got[2], NotConverged)
    # the first round evaluates six integrals together
    assert max(calls) == 6


def test_batch_overflow_stays_with_its_integral():
    # an overflowing panel and an overflowing total each fail their own
    # integral; the others keep the bits they get alone
    cases = [
        (lambda t: np.sin(3.0 * t), 0.0, 1.0, ()),
        (lambda t: np.full_like(t, 1e308), 0.0, 4.0, ()),
        (lambda t: np.sqrt(t), 0.0, 1.0, (0.5,)),
        (lambda t: np.full_like(t, 0.8e308), 0.0, 4.0, (1.0, 2.0, 3.0)),
        (lambda t: np.exp(-t), 0.0, 5.0, ()),
    ]

    def f(x, owner):
        out = np.empty(x.size)
        for j in np.unique(owner):
            out[owner == j] = cases[j][0](x[owner == j])
        return out

    got = integrate_batch(f, [case[1:] for case in cases], rel_tol=1e-12)
    expect = [lone(g, lo, hi, points, rel_tol=1e-12) for g, lo, hi, points in cases]
    assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
    assert [type(o) for o in got] == [QuadratureResult, NonFiniteSample] * 2 + [QuadratureResult]


def test_batch_checks_its_arguments():
    with pytest.raises(ValueError):
        integrate_batch(lambda x, owner: x, [(0.0, 1.0, ()), (1.0, 0.0, ())])
    with pytest.raises(ValueError):
        integrate_batch(lambda x, owner: x, [(0.0, 1.0, ())], rel_tol=0.0)
    assert integrate_batch(lambda x, owner: x, []) == []
    # an error that is not the package's own is a fault of the caller's
    # integrand and stops the whole batch
    def careless(x, owner):
        raise KeyError("not a package error")

    with pytest.raises(KeyError):
        integrate_batch(careless, [(0.0, 1.0, ())] * 2)


def test_batch_refuses_infinite_tolerances():
    for kwargs in (dict(rel_tol=math.inf), dict(abs_tol=math.inf), dict(rel_tol=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            integrate_batch(lambda x, owner: x, [(0.0, 1.0, ())], **kwargs)


def without_look_ahead(monkeypatch):
    # the loop that evaluates only the panels it needs now: one call of the
    # integrand per split
    monkeypatch.setattr(trapcav.quadrature._Integral, "_look_ahead", lambda self, *limits: [])


def counted(f):
    # f, and the list of node arrays of its calls
    calls = []

    def wrapped(*args):
        calls.append(np.array(args[0]))
        return f(*args)

    return wrapped, calls


def test_look_ahead_stops_at_the_depth_limit():
    # the loop stops once its worst panel has max_depth halvings; the
    # look-ahead evaluates no halves beyond that depth
    f, calls = counted(lambda t: np.sin(3.0 * t))
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(f, 0.0, 2.0, rel_tol=1e-14, abs_tol=0.0, max_depth=6)
    assert err.value.evaluations == 1545
    assert sum(map(len, calls)) <= 1.05 * err.value.evaluations


def panels_of(calls):
    # the nodes of every panel evaluated, 15 to a panel
    return {tuple(x[i : i + 15]) for x in calls for i in range(0, len(x), 15)}


def test_look_ahead_spends_the_panel_cap_in_few_calls(monkeypatch):
    # rel_tol lies under the estimate floor of a sign-changing integrand, so
    # the loop splits until the 10 000-panel cap; the look-ahead evaluates
    # the panels it must split many at a time, with the same outcome
    f, calls = counted(lambda t: np.sin(3.0 * t))
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(f, 0.0, 2.0, rel_tol=1e-12)
    stop = err.value
    assert stop.evaluations == 299_985 and len(calls) <= 200
    # no panel is evaluated twice, and the look-ahead stays within the
    # splits left under the cap, so almost none go unused
    nodes = sum(map(len, calls))
    assert len(panels_of(calls)) == nodes // 15 and nodes <= 1.01 * stop.evaluations
    assert math.isclose(stop.value, (1.0 - math.cos(6.0)) / 3.0, rel_tol=1e-12)
    without_look_ahead(monkeypatch)
    one_by_one, calls = counted(lambda t: np.sin(3.0 * t))
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(one_by_one, 0.0, 2.0, rel_tol=1e-12)
    assert outcome_key(err.value) == outcome_key(stop) and len(calls) == 10_000


def test_a_failing_look_ahead_panel_changes_no_outcome():
    # the chirp stops at the panel cap with look-ahead halves it never
    # used; an integrand that raises on one of them gets the outcome of the
    # loop that never evaluates them
    chirp = lambda x: np.sin(1e5 * x * x)
    expect = rescanning_loop(chirp, 0.0, 1.0, max_panels=500)
    f, calls = counted(chirp)
    with pytest.raises(NotConverged):
        integrate_adaptive(f, 0.0, 1.0, max_panels=500)
    looked, reference_calls = counted(chirp)
    rescanning_loop(looked, 0.0, 1.0, max_panels=500)
    # no panel is evaluated twice, though some are evaluated unused
    assert len(panels_of(calls)) * 15 == sum(map(len, calls))
    unused = sorted(panels_of(calls) - panels_of(reference_calls))
    assert unused
    bad = np.array(unused[len(unused) // 2])
    raised = []

    def fragile(x):
        if np.isin(x, bad).any():
            raised.append(x.size)
            raise NumericDegeneracy("synthetic failure on a look-ahead panel")
        return chirp(x)

    with pytest.raises(NotConverged) as err:
        integrate_adaptive(fragile, 0.0, 1.0, max_panels=500)
    stop = err.value
    assert (stop.value, stop.error_estimate, stop.evaluations, False) == expect
    assert raised


def test_look_ahead_batch_matches_lone_integrals(monkeypatch):
    # converging, capped and depth-limited integrals, one that raises on
    # its first panel and one that raises on a look-ahead panel it never
    # uses, all in one batch: each gets its lone outcome, and the loop
    # without look-ahead gets the same
    chirp = lambda t: np.sin(1e4 * t * t)
    kwargs = dict(rel_tol=1e-10, max_depth=20, max_panels=200)
    f, calls = counted(chirp)
    lone(f, 0.0, 1.0, **kwargs)
    with monkeypatch.context() as patch:
        without_look_ahead(patch)
        g, needed_calls = counted(chirp)
        lone(g, 0.0, 1.0, **kwargs)
    bad = np.array(min(panels_of(calls) - panels_of(needed_calls)))
    raised = []

    def fragile(t):
        if np.isin(t, bad).any():
            raised.append(t.size)
            raise NumericDegeneracy("synthetic failure on a look-ahead panel")
        return chirp(t)

    cases = [
        (lambda t: np.sqrt(t), 0.0, 1.0, ()),
        (chirp, 0.0, 1.0, ()),
        (lambda t: np.where(t < 0.3, 1.0, 0.0), 0.0, 1.0, ()),
        (broken, 0.0, 1.0, ()),
        (lambda t: np.exp(-t) * np.sin(40.0 * t), 0.0, 3.0, (1.0, 2.0)),
        (lambda t: np.abs(t - 0.7) ** 0.25, 0.0, 1.0, ()),
        (fragile, 0.0, 1.0, ()),
    ]
    splits = []

    def batched(x, owner):
        out = np.empty(x.size)
        for j in np.unique(owner):
            out[owner == j] = cases[j][0](x[owner == j])
        splits.append(np.bincount(owner, minlength=len(cases)) // 30)
        return out

    got = integrate_batch(batched, [case[1:] for case in cases], **kwargs)
    assert raised
    expect = [lone(g, lo, hi, points, **kwargs) for g, lo, hi, points in cases]
    assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
    assert [type(o) for o in got] == [QuadratureResult, NotConverged, NotConverged] + [
        NumericDegeneracy, QuadratureResult, NotConverged, NotConverged
    ]
    assert outcome_key(got[6]) == outcome_key(got[1])
    # some call evaluated several splits of one integral
    assert max(max(s) for s in splits[1:]) > 1
    without_look_ahead(monkeypatch)
    one_by_one = integrate_batch(batched, [case[1:] for case in cases], **kwargs)
    assert [outcome_key(o) for o in one_by_one] == [outcome_key(o) for o in got]


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


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max, -0.0]
)


@given(st.lists(FLOATS, max_size=40), FLOATS)
@settings(max_examples=300)
def test_fixed_point_totals_round_like_fsum(xs, y):
    # every float is a whole number of units of 2**-1074, summed exactly
    assert all(Fraction(_fixed(x), 1 << 1074) == Fraction(x) for x in xs)
    total = sum(map(_fixed, xs))
    try:
        expect = math.fsum(xs)
    except OverflowError:
        # fsum gives up on an intermediate overflow; the exact rational sum
        # decides, rounded once
        exact = sum(map(Fraction, xs))
        try:
            expect = float(exact)
        except OverflowError:
            expect = math.inf if exact > 0 else -math.inf
    assert _rounded(total) == expect
    # taking a term out restores the previous total exactly
    assert total + _fixed(y) - _fixed(y) == total


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
