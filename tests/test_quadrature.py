import math
import random
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from trapcav import NonFiniteSample, NumericDegeneracy, fan_integrals
import trapcav.quadrature
from trapcav.quadrature import (
    _WG,
    _WGK,
    _XGK,
    NotConverged,
    QuadratureResult,
    _gk15,
    _sum,
    integrate_adaptive,
    pairwise_sum,
)

_EPS = sys.float_info.epsilon


def sin5_primitive(u):
    c = math.cos(u)
    return -c + (2.0 / 3.0) * c**3 - 0.2 * c**5


SIN5_FULL = 16.0 / 15.0


def test_adaptive_sin5_over_half_turn():
    q = integrate_adaptive(lambda t: np.sin(t) ** 5, 0.0, math.pi, rel_tol=1e-12)
    assert q.converged
    assert math.isclose(q.value, SIN5_FULL, rel_tol=1e-12)
    assert q.error_estimate <= 1e-12 * q.value


def test_adaptive_linear_exact():
    q = integrate_adaptive(lambda x: x, 0.0, 1.0, rel_tol=1e-12)
    assert abs(q.value - 0.5) < 1e-12
    assert q.evaluations == 15  # one panel nails a polynomial


def test_adaptive_empty_interval():
    # zero, without a call of the integrand
    f, calls = counted(np.sin)
    assert integrate_adaptive(f, 2.0, 2.0) == QuadratureResult(0.0, 0.0, 0, True)
    assert calls == []


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lo=1.0, hi=0.0),
        dict(rel_tol=0.0),
        dict(rel_tol=-1e-9),
        dict(abs_tol=-1.0),
        dict(rel_tol=math.inf),
        dict(abs_tol=math.inf),
        dict(rel_tol=math.nan),
        # a width beyond the float range would put infinite or NaN nodes
        # before the integrand
        dict(lo=-1e308, hi=1e308),
        dict(lo=0.0, hi=math.inf),
    ],
)
def test_adaptive_rejects_bad_arguments(kwargs):
    # refused before the integrand is ever called
    f, calls = counted(np.sin)
    args = dict(lo=0.0, hi=1.0)
    args.update(kwargs)
    with pytest.raises(ValueError):
        integrate_adaptive(f, **args)
    assert calls == []


@pytest.mark.parametrize(
    "f", [lambda x: 1.0, lambda x: x[:-1], lambda x: (np.sin(x), np.cos(x))]
)
def test_adaptive_rejects_misshapen_integrands(f):
    # one value per node, and not a row of them per component
    with pytest.raises(ValueError):
        integrate_adaptive(f, 0.0, 1.0)


def test_adaptive_reports_failure_with_best_value(monkeypatch):
    # a step cannot be resolved to 1e-13 with only 5 halvings
    monkeypatch.setattr(trapcav.quadrature, "MAX_DEPTH", 5)
    step = lambda x: np.where(x < 0.3, 1.0, 0.0)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(step, 0.0, 1.0, rel_tol=1e-13)
    assert 0.25 < err.value.value < 0.35
    assert err.value.error_estimate > 0.0
    assert err.value.evaluations > 15


def test_adaptive_panel_cap(monkeypatch):
    monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", 8)
    step = lambda x: np.where(x < 0.3, 1.0, 0.0)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(step, 0.0, 1.0, rel_tol=1e-13)
    # 7 splits from one seed panel: 15 panels of 15 samples each
    assert 15 < err.value.evaluations <= 15 * 15


def test_adaptive_propagates_integrand_errors():
    # the integrand's own TrapcavError, on the initial panels or on a later
    # round's halves, is raised as it is; so is any other exception
    failure = NumericDegeneracy("synthetic integrand failure")

    def broken(t):
        raise failure

    with pytest.raises(NumericDegeneracy) as err:
        integrate_adaptive(broken, 0.0, 1.0)
    assert err.value is failure
    # no node of the first panel, [0, 1], lies in (0.7, 0.701)
    chirp = lambda t: np.sin(1e4 * t * t)
    fragile = lambda t: broken(t) if ((t > 0.7) & (t < 0.701)).any() else chirp(t)
    f, calls = counted(fragile)
    with pytest.raises(NumericDegeneracy) as err:
        integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-10)
    assert err.value is failure and len(calls) > 1

    def careless(t):
        raise KeyError("not a package error")

    with pytest.raises(KeyError):
        integrate_adaptive(careless, 0.0, 1.0)


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
    # two finite halves whose total overflows: named by the interval's
    # center, in the round after the one that evaluated [0, 4]; the center
    # node of [0, 4] lies on the step, so that panel's value, 1.69e308,
    # falls short of the integral, 1.86e308
    f, calls = counted(lambda x: np.where(x < 2.0, 0.88e308, 0.05e308))
    with pytest.raises(NonFiniteSample) as err:
        integrate_adaptive(f, 0.0, 4.0)
    assert (err.value.x, err.value.value) == (2.0, math.inf)
    assert [x.size for x in calls] == [15, 30]


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
    for f in GK15_CASES:
        for lo, hi in GK15_PANELS:
            rv, re, ra = gk15_loop(f, lo, hi)
            (v,), (e,), (fl,) = _gk15(f, [lo], [hi])
            assert abs(v - rv) <= 4.0 * _EPS * ra
            assert math.isclose(e, re, rel_tol=1e-4)
            assert math.isclose(fl, 50.0 * _EPS * ra, rel_tol=1e-14) and fl <= e


def test_gk15_batch_matches_single_panels():
    # one call over m panels gives each panel exactly what a call of its
    # own gives: every panel is reduced on its own, whatever the batch
    los, his = zip(*GK15_PANELS)
    for f in GK15_CASES:
        values, errs, floors = _gk15(f, los, his)
        assert values.shape == errs.shape == floors.shape == (len(los),)
        for v, e, fl, lo, hi in zip(values, errs, floors, los, his):
            (single_v,), (single_e,), (single_fl,) = _gk15(f, [lo], [hi])
            assert v == single_v and e == single_e and fl == single_fl
    # random panels in batches of every size up to 64
    rng = np.random.default_rng(11)
    lo = rng.uniform(-3.0, 3.0, 64)
    hi = lo + rng.uniform(1e-6, 2.0, 64)
    f = lambda t: np.sin(3.0 * t) * np.exp(t) + 1.0 / (1.0 + t * t)
    whole = _gk15(f, lo, hi)
    for m in range(1, 65):
        start = int(rng.integers(0, 65 - m))
        part = _gk15(f, lo[start : start + m], hi[start : start + m])
        for got, expect in zip(part, whole):
            assert np.array_equal(got, expect[start : start + m])


def test_gk15_names_the_first_non_finite_node_of_a_batch():
    # poles in the second and third of three panels: the second one's is
    # reported, with the integrand's value there
    nodes = []

    def poles(t):
        nodes.append(t)
        bad = (t > 1.5) & (t < 2.5)
        return np.where(bad & (t > 2.25), np.inf, np.where(bad, np.nan, t))

    with pytest.raises(NonFiniteSample) as err:
        _gk15(poles, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    (t,) = nodes
    first = t[(t > 1.5) & (t < 2.5)][0]
    assert 1.5 < first < 2.0
    assert err.value.x == first and math.isnan(err.value.value)


def rescanning_loop(f, lo, hi, rel_tol=1e-9, abs_tol=1e-300, max_depth=50, max_panels=10_000):
    """The round rule in plain Python.

    Every round re-sums all panels with ``math.fsum`` and sorts them worst
    first (largest error, leftmost among equals).  Unless the panels meet
    the target, it halves the fewest worst ones whose removal leaves the
    estimate sum of the others, added from the least up, within the
    target, cut at the first panel of ``max_depth`` and at the room left
    under ``max_panels``, and evaluates all the halves in one call.  It
    stops unconverged when that leaves nothing to halve or once the
    panels' estimate floors sum past the target.  Returns (value, error
    estimate, evaluations, converged, calls).
    """
    todo = [(lo, hi, 0)]
    panels, evaluations, calls = [], 0, 0
    while True:
        values, errs, floors = _gk15(f, [p[0] for p in todo], [p[1] for p in todo])
        panels += [(*p, *map(float, t)) for p, t in zip(todo, zip(values, errs, floors))]
        evaluations += 15 * len(todo)
        calls += 1
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[4] for p in panels)
        target = max(rel_tol * abs(total), abs_tol)
        if total_err <= target:
            return total, total_err, evaluations, True, calls
        worst = sorted(panels, key=lambda p: (-p[4], p[0], p[1]))
        # left[j]: the estimate sum of all but the j worst
        left = list(accumulate(p[4] for p in reversed(worst)))[::-1] + [0.0]
        count = next(j for j in range(1, len(worst) + 1) if left[j] <= target)
        count = max(0, min(count, max_panels - len(worst)))
        count = next((j for j in range(count) if worst[j][2] >= max_depth), count)
        if not count or math.fsum(p[5] for p in panels) > target:
            return total, total_err, evaluations, False, calls
        todo = []
        for a, b, depth, *_ in worst[:count]:
            mid = 0.5 * (a + b)
            todo += [(a, mid, depth + 1), (mid, b, depth + 1)]
        panels = worst[count:]


def adaptive_outcome(f, lo, hi, *args):
    # integrate_adaptive's outcome in rescanning_loop's form
    g, calls = counted(f)
    try:
        q = integrate_adaptive(g, lo, hi, *args)
    except NotConverged as err:
        return err.value, err.error_estimate, err.evaluations, False, len(calls)
    return q.value, q.error_estimate, q.evaluations, q.converged, len(calls)


def criterion_7_integrals(windows):
    # the fan integrands of acceptance criterion 7 on its first windows,
    # with its seed, bounds and tolerances, and their closed forms
    rng = random.Random(6283)
    for _ in range(windows):
        phi = rng.uniform(0.0, math.pi / 4 - 1e-3)
        t1 = rng.uniform(2 * phi + 1e-3, math.pi - 1e-3)
        t2 = rng.uniform(t1 + 1e-4, math.pi)
        fan = fan_integrals(t1 - 2 * phi, t2 - t1, math.cos(phi), math.sin(phi))
        for closed, trig in zip(reversed(fan), (np.sin, np.cos)):
            raw = lambda t, phi=phi, trig=trig: np.sin(t - 2 * phi) ** 4 * trig(t - phi)
            yield raw, t1, t2, 1e-12, 1e-14 * (t2 - t1), closed


def test_round_loop_matches_a_rescanning_loop(monkeypatch):
    # fsum of the live panels after every round, and the panels to halve
    # chosen by sorting them: the outcome, its bits and its calls match the
    # plain reference loop
    def forbidden(*args, **kwargs):
        raise AssertionError("the adaptive loop called pairwise_sum")

    monkeypatch.setattr(trapcav.quadrature, "pairwise_sum", forbidden)
    chirp = lambda x: np.sin(1e5 * x * x)
    # the chirp stopped by the panel cap and by the depth limit
    for max_panels, max_depth in ((500, 50), (10_000, 6), (77, 9)):
        monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", max_panels)
        monkeypatch.setattr(trapcav.quadrature, "MAX_DEPTH", max_depth)
        expect = rescanning_loop(chirp, 0.0, 1.0, max_depth=max_depth, max_panels=max_panels)
        assert not expect[3]
        assert adaptive_outcome(chirp, 0.0, 1.0) == expect
    assert rescanning_loop(chirp, 0.0, 1.0, max_panels=500)[2] == 15 + 30 * 499
    # [0, 1] and [1, 2] sample the same values, hence have the same
    # estimate, and leave room for one split: the left one is halved, so
    # the narrow bump in the right one, at the center of its right half,
    # stays unseen
    monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", 3)
    monkeypatch.setattr(trapcav.quadrature, "MAX_DEPTH", 50)
    square = lambda t: np.where(t % 1.0 < 0.3, 1.0, 0.0) + (np.abs(t - 1.75) < 1e-3)
    stop = adaptive_outcome(square, 0.0, 2.0)
    assert stop == rescanning_loop(square, 0.0, 2.0, max_panels=3)
    assert stop[2:] == (75, False, 3) and math.isclose(stop[0], 0.6, rel_tol=0.1)
    monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", 10_000)
    # converging integrals stop in the same round with the same bits
    cases = [
        (lambda t: np.sqrt(1.0 - t), 1e-12),
        (lambda t: np.sin(1e3 * t * t), 1e-9),
        (lambda t: np.where(t < 0.3, 1.0, 0.0), 1e-9),
        (lambda t: np.abs(t - 0.7) ** 0.25, 1e-11),
        (lambda t: 1.0 + np.sin(200.0 * t), 1e-13),
    ]
    for f, rel_tol in cases:
        q = adaptive_outcome(f, 0.0, 1.0, rel_tol, 0.0)
        assert q == rescanning_loop(f, 0.0, 1.0, rel_tol, 0.0) and q[3]
        assert (q[2] - 15) // 30 >= 20
    # and so do the integrals acceptance criterion 7 runs, each within its
    # gate of the closed form
    for f, lo, hi, rel_tol, abs_tol, closed in criterion_7_integrals(50):
        q = adaptive_outcome(f, lo, hi, rel_tol, abs_tol)
        assert q == rescanning_loop(f, lo, hi, rel_tol, abs_tol) and q[3]
        assert abs(closed - q[0]) <= 1e-10 * max(abs(closed), abs(q[0]), 1e-3 * (hi - lo))


def test_an_integral_stops_once_its_floors_exceed_the_target():
    # |sin 3t| integrates to about 100 times |sin 3t| over [0, 2], so the
    # estimate floors alone, 50 eps of that, exceed a 1e-12 target: the loop
    # stops with the reference loop's outcome, not at the panel cap
    wave = lambda t: np.sin(3.0 * t)
    stop = adaptive_outcome(wave, 0.0, 2.0, 1e-12, 0.0)
    assert stop == rescanning_loop(wave, 0.0, 2.0, 1e-12, 0.0)
    assert stop[2:] == (15, False, 1)
    assert math.isclose(stop[0], (1.0 - math.cos(6.0)) / 3.0, rel_tol=1e-6)
    # ten times the target lies above the floors, and the loop meets it
    q = integrate_adaptive(wave, 0.0, 2.0, rel_tol=1e-11, abs_tol=0.0)
    assert q.converged and math.isclose(q.value, (1.0 - math.cos(6.0)) / 3.0, rel_tol=1e-11)


def test_initial_sums_match_the_exact_totals():
    # integrals that converge on the two halves of [lo, hi] are summed by
    # fsum: each value and estimate is the exact sum of the halves' floats,
    # rounded once
    cases = [
        (lambda t: np.abs(t - 0.3), 0.0, 0.6),
        (lambda t: np.abs(t - 1.0), -1.0, 3.0),
        (lambda t: np.where(t < 1.0, 1.0, -2.0), 0.0, 2.0),
        (lambda t: np.maximum(t, 0.0) ** 3, -2.0, 2.0),
        (lambda t: np.where(t < 0.0, -1e-300, 6e-300 * t * t), -1.0, 1.0),
    ]
    for g, lo, hi in cases:
        f, calls = counted(g)
        q = integrate_adaptive(f, lo, hi, abs_tol=0.0)
        assert q.converged and [x.size for x in calls] == [15, 30]
        mid = 0.5 * (lo + hi)
        values, errs, _ = _gk15(g, [lo, mid], [mid, hi])
        exact = [float(sum(map(Fraction, a.tolist()))) for a in (values, errs)]
        assert [q.value, q.error_estimate] == exact


def test_an_intermediate_overflow_of_fsum_leaves_the_sums_to_the_exact_totals(monkeypatch):
    # the nodes of [0, 4] miss the plateau on (2.45, 2.75), so its integral
    # of |f| stays a float; the third round sums [0, 2], [2, 3] and [3, 4],
    # and fsum gives up on 1.6e308 + 0.26e308, though the sum of all three,
    # 1.7e308, is a float: the sum of fractions, rounded once, decides
    f = lambda t: np.where(
        t < 2.0, 0.8e308, np.where(t >= 3.0, -0.15e308, np.where((t > 2.45) & (t < 2.75), 0.85e308, 0.0))
    )
    values, errs, _ = _gk15(f, [0.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    with pytest.raises(OverflowError):
        math.fsum(values)
    # room for those three panels only: the loop stops on their sums
    monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", 3)
    g, calls = counted(f)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(g, 0.0, 4.0)
    stop = err.value
    assert [x.size for x in calls] == [15, 30, 30] and calls[2].min() > 2.0
    assert stop.value == float(sum(map(Fraction, values.tolist())))
    assert stop.error_estimate == float(sum(map(Fraction, errs.tolist())))
    assert math.isclose(stop.value, 1.7e308, rel_tol=0.01)
    # an integral that runs on sums its panels the same way in later rounds
    monkeypatch.setattr(trapcav.quadrature, "MAX_PANELS", 10_000)
    g, calls = counted(f)
    q = integrate_adaptive(g, 0.0, 4.0)
    assert q.converged and len(calls) > 3
    assert math.isclose(q.value, 1.705e308, rel_tol=1e-9)


def counted(f):
    # f, and the list of node arrays of its calls
    calls = []

    def wrapped(*args):
        calls.append(np.array(args[0]))
        return f(*args)

    return wrapped, calls


def test_look_ahead_stops_at_the_depth_limit(monkeypatch):
    # the loop stops once its worst panel has MAX_DEPTH halvings; no round
    # halves a panel of that depth, although none of them resolves the
    # chirp, and every panel evaluated is used
    monkeypatch.setattr(trapcav.quadrature, "MAX_DEPTH", 6)
    f, calls = counted(lambda t: np.sin(1e5 * t * t))
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(f, 0.0, 1.0)
    assert err.value.evaluations == sum(map(len, calls)) == 1905
    widths = np.concatenate([np.ptp(x.reshape(-1, 15), axis=1) for x in calls])
    assert widths.min() > 0.9 * 2.0**-6


def panels_of(calls):
    # the nodes of every panel evaluated, 15 to a panel
    return {tuple(x[i : i + 15]) for x in calls for i in range(0, len(x), 15)}


def test_look_ahead_spends_the_panel_cap_in_few_calls():
    # some 6400 oscillations, each resolved to 1e-12, need more panels than
    # the 10 000-panel cap; each round halves every panel the loop must
    # split, so the cap is spent in few calls of the integrand
    wave = lambda t: 1.0 + np.sin(2e4 * t)
    f, calls = counted(wave)
    with pytest.raises(NotConverged) as err:
        integrate_adaptive(f, 0.0, 2.0, rel_tol=1e-12)
    stop = err.value
    assert stop.evaluations == 299_985 and len(calls) <= 20
    # no panel is evaluated twice, and every one evaluated is used
    nodes = sum(map(len, calls))
    assert len(panels_of(calls)) == nodes // 15 and nodes == stop.evaluations
    assert math.isclose(stop.value, 2.0 + (1.0 - math.cos(4e4)) / 2e4, rel_tol=1e-12)


@pytest.mark.parametrize("limits", [dict(MAX_DEPTH=0), dict(MAX_PANELS=1)])
def test_limits_below_the_initial_panels_stop_after_one_call(monkeypatch, limits):
    # [lo, hi] may not be halved: an integral that does not converge on it
    # stops after the call that evaluates it, and one that converges on it
    # is unaffected
    for name, limit in limits.items():
        monkeypatch.setattr(trapcav.quadrature, name, limit)
    cases = [
        (np.sqrt, 0.0, 1.0, NotConverged),
        (lambda t: t * t, 0.0, 1.0, QuadratureResult),
        (lambda t: np.abs(t - 0.3), 0.0, 2.0, NotConverged),
    ]
    for g, lo, hi, kind in cases:
        f, calls = counted(g)
        try:
            outcome = integrate_adaptive(f, lo, hi, rel_tol=1e-12)
        except NotConverged as err:
            outcome = err
        assert type(outcome) is kind
        assert [x.size for x in calls] == [15]
        assert outcome.evaluations == 15


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


@given(st.lists(FLOATS, max_size=40))
@settings(max_examples=300)
def test_panel_sums_round_like_fsum(xs):
    # fsum, or, when fsum gives up on an intermediate overflow, the exact
    # rational sum rounded once
    try:
        expect = math.fsum(xs)
    except OverflowError:
        exact = sum(map(Fraction, xs))
        try:
            expect = float(exact)
        except OverflowError:
            expect = math.inf if exact > 0 else -math.inf
    assert _sum(xs) == expect


def test_pairwise_sum_basics():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5
    assert pairwise_sum([1.0, 2.0, 3.0]) == 6.0
    rows = np.arange(12.0).reshape(3, 4)
    by_row = pairwise_sum(rows)
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
