"""Adaptive Gauss-Kronrod integration with exact panel totals.

Panels use the 7-point Gauss / 15-point Kronrod pair; the difference between
the two rules gives the per-panel error estimate (sharpened by the usual
scaled-residual inflation so the estimate stays honest on rough panels).

The integrand takes a 1-D array of nodes and returns one value per node, or
one row per component (shape (n,) or (k, n)); the value and error estimate
come back as a float or a tuple of k floats.  All components share the
panels, and every norm is the max-norm over components: the panel with the
largest component estimate splits until the largest summed estimate meets
max(rel_tol * max |value_i|, abs_tol), a panel reaches ``max_depth``
halvings, the panel list hits a safety cap, or the estimate floors of the
live panels (``REL_TOL_FLOOR`` times each one's integral of |f|, which no
split lowers much) alone sum past that target.  For a scalar integrand this
is the plain rule |error| <= max(rel_tol * |value|, abs_tol).

Every test and result rounds the exact sums of the live panels' values and
estimates once: a result is the ``math.fsum`` of its final panels, whatever
the order in which they were made.  The first test, on the initial panels,
sums them with ``math.fsum``; an integral that must split keeps its sums
exactly from then on, as integers in units of 2**-1074, and each live
panel keeps its estimates in those units from when it was made.

The loop splits one panel per step, always the worst (QUADPACK's QAG
order), but it evaluates panels ahead of that order.  When a step needs
the halves of its worst panel and they have not been evaluated, the same
call of the integrand also evaluates the halves of the fewest worst live
panels whose removal would bring every component's estimate sum under the
current target: unless the target grows, the loop cannot stop before it
has split them.  The steps then go on, with no call of the integrand,
until one needs halves that are not evaluated.  The look-ahead stops at
``max_depth`` and at the splits left under the panel cap.  It changes
which calls evaluate a panel, never which panels the loop makes or in what
order: a result, its evaluation count (the nodes of the panels used) and
its bits are those of one split per call.

:func:`integrate_batch` runs many independent integrals in lock-step; its
integrand also gets, for every node, the index of the integral the node
belongs to.  The first round is array-at-a-time: the initial panels of all
integrals, laid out as flat arrays of panel edges, go through one call of
the integrand, and each integral is tested on the ``math.fsum`` of its own
slice.  One that converges there returns its result at once and keeps no
state; only the others become lock-step integrals, which start from the
panels already evaluated.  Each later round, every integral that has not
finished steps until it needs panels that are not evaluated, and then the
panels all of them need, with their look-ahead, are evaluated in one call
of the integrand.  An integral takes exactly the
steps it would take alone, and gives the same bits: the kernel works node
by node, and the rules reduce each panel with a per-row dot product
(``np.vecdot``), whose result does not depend on how many panels share the
call, as a BLAS matrix-vector product's does.  A failure stays with its own
integral: when the batched call raises a :class:`TrapcavError` (a
:class:`NonFiniteSample`, or a typed error of the integrand, such as the
kernel's), each integral of the round, the first round included, is
evaluated on its own, and one that raises is evaluated again on the panels
it needs now alone, so that a look-ahead panel cannot decide an outcome;
one whose own panels raise finishes with that exception while the others
go on.
:func:`integrate_adaptive` is the batch of one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteSample, NotConverged, TrapcavError

#: A float, or a fixed-length tuple of floats for a vector integrand.
Value = float | tuple[float, ...]

#: Maps a 1-D array of n nodes to shape (n,), or (k, n) for k components
#: (an array, or a tuple of k arrays).
Integrand = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, ...]"]

#: The same for a batch: also gets the index of each node's integral.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], "np.ndarray | tuple[np.ndarray, ...]"]

# 15-point Kronrod abscissae on [-1, 1] (positive half; x[7] = 0 is implicit)
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
# Kronrod weights, same order, last entry is the center weight
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# embedded 7-point Gauss weights: nodes are _XGK[1], _XGK[3], _XGK[5] and 0
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# all 15 nodes in increasing order, with both rules' weights on them (the
# Gauss rule weighs the Kronrod-only nodes by zero)
_X15 = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_WK15 = np.array(_WGK + tuple(reversed(_WGK[:7])))
_WG7 = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0)
_WG15 = np.array(_WG7 + (_WG[3],) + tuple(reversed(_WG7)))

_EPS = 2.220446049250313e-16

#: Each panel's error estimate is at least this share of the integral of |f|
#: over it, so a relative tolerance below it can never be met.
REL_TOL_FLOOR = 50.0 * _EPS


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its error estimate and cost accounting.

    ``value`` and ``error_estimate`` have the integrand's shape: floats, or
    tuples of floats of the integrand's length.  ``evaluations`` counts the
    nodes of the panels used, ``kernel_calls`` the calls of the integrand
    that evaluated its panels, the same in a batch as alone.
    """

    value: Value
    error_estimate: Value
    evaluations: int
    converged: bool
    kernel_calls: int = 0
    method: str = "gauss-kronrod-7-15"


def pairwise_sum(values, axis: int = -1):
    """Sum along ``axis`` with a fixed adjacent-pair tree.

    The tree pairs elements (0,1), (2,3), ... and carries an odd trailing
    element to the next round unchanged, so the reduction order depends only
    on the length, never on chunking.  Returns a float for 1-D input.
    It serves the oracle; the adaptive integrals sum their panels exactly.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[axis] == 0:
        out = np.zeros(a.sum(axis=axis).shape)
        return float(out) if out.ndim == 0 else out
    if axis % a.ndim != a.ndim - 1:
        a = np.moveaxis(a, axis, -1)
    while a.shape[-1] > 1:
        n = a.shape[-1]
        m = 2 * (n // 2)
        paired = a[..., 0:m:2] + a[..., 1:m:2]
        if n % 2:
            paired = np.concatenate([paired, a[..., -1:]], axis=-1)
        a = paired
    out = a[..., 0]
    return float(out) if out.ndim == 0 else out


# the least subnormal, 2**-1074, is the unit of the exact totals
_UNITS_PER_ONE = 1 << 1074


def _fixed(x: float) -> int:
    """The finite float ``x`` exactly, in units of 2**-1074 (the least subnormal)."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _rounded(total: int) -> float:
    """A total in units of 2**-1074, rounded once; +-inf beyond the float range."""
    try:
        return total / _UNITS_PER_ONE
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _gk15(f: Integrand, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [lo_i, hi_i], all nodes in one call of ``f``.

    ``lo`` and ``hi`` are 1-D arrays of m panel edges, ``lo <= hi``; ``f``
    gets the 15 m nodes panel after panel.  Returns (value, error estimate,
    estimate floor) arrays of shape (m,) for a scalar integrand and (m, k)
    for one of k components; the floor, ``REL_TOL_FLOOR`` times the
    panel's integral of ``|f|``, is the least estimate the panel can have.
    Raises :class:`NonFiniteSample` at the first node where any component
    is NaN or infinite, or else at the center of the first panel whose
    value or estimate overflows.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    xs = ((0.5 * (lo + hi))[:, None] + half[:, None] * _X15).ravel()
    fv = np.asarray(f(xs), dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[-1] != xs.size:
        raise ValueError(f"integrand returned shape {fv.shape} for {xs.size} nodes")
    if not np.isfinite(fv).all():
        j = int(np.argmin(np.isfinite(fv).reshape(-1, xs.size).all(axis=0)))
        raise NonFiniteSample(float(xs[j]), _shaped(fv[..., j]))
    value, err, floor = _rules(fv.reshape(fv.shape[:-1] + (lo.size, 15)), half)
    finite = np.isfinite(value) & np.isfinite(err)
    if not finite.all():
        j = int(np.argmin(finite.reshape(lo.size, -1).all(axis=1)))
        bad = value[j] if not np.isfinite(value[j]).all() else err[j]
        raise NonFiniteSample(float(0.5 * (lo[j] + hi[j])), _shaped(bad))
    return value, err, floor


# finite samples can still overflow a panel's sums, and _gk15 names such a
# panel, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _rules(fv: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, error estimate and its floor of sampled panels, shape (m, 15)
    or (k, m, 15).

    Returns arrays of shape (m,) or (m, k), panels first.
    """
    # one dot product per panel and rule: a panel's bits do not depend on
    # its batch
    resk = np.vecdot(fv, _WK15)
    resg = np.vecdot(fv, _WG15)
    resabs = np.vecdot(np.abs(fv), _WK15) * half
    resasc = np.vecdot(np.abs(fv - 0.5 * resk[..., None]), _WK15) * half
    err = np.abs(resk - resg) * half
    # inflate towards resasc unless the rules genuinely agree
    inflate = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(inflate, resasc, 1.0)
    err = np.where(inflate, resasc * np.minimum(1.0, ratio**1.5), err)
    floor = REL_TOL_FLOOR * resabs
    return (resk * half).T, np.maximum(err, floor).T, floor.T


def _shaped(a) -> Value:
    # a float for a float integrand, a tuple of floats for a vector one
    out = np.asarray(a).tolist()
    return tuple(out) if isinstance(out, list) else out


def _plus(total: list[int], rows) -> list[int]:
    # per component, the total plus the exact units of every row of k floats
    return [t + sum(map(_fixed, c)) for t, c in zip(total, zip(*rows))]


def _minus(total: list[int], row: list[float]) -> list[int]:
    # per component, the total less the exact units of one row of k floats
    return [t - _fixed(x) for t, x in zip(total, row)]


def _threshold(target: float) -> int:
    # the least total, in units of 2**-1074, whose rounding exceeds the
    # finite target: the midpoint of the target and the next float up, or
    # the unit above it when the tie rounds down
    total = _fixed(target) + _fixed(math.ulp(target)) // 2
    return total if _rounded(total) > target else total + 1


def _target(value: list[float], rel_tol: float, abs_tol: float) -> float:
    # the bound on every component's summed estimate
    return max(rel_tol * max(map(abs, value)), abs_tol)


def _value(sums: list[float], vector: bool) -> Value:
    # a float for a scalar integrand, a tuple of k floats for a vector one
    return tuple(sums) if vector else sums[0]


def _initial_sums(
    values: list[list[float]], errs: list[list[float]], rel_tol: float, abs_tol: float
) -> tuple[list[float], list[float]] | None:
    """The first convergence test, on an integral's initial panels.

    ``values`` and ``errs`` hold the panels' floats per component.  Returns
    their ``math.fsum`` per component when the estimates meet the target,
    else None.  fsum rounds once, as the exact totals do, so an integral
    that converges here gets their bits without building them; an
    intermediate overflow of fsum leaves the test to them.
    """
    try:
        value = [math.fsum(c) for c in values]
        err = [math.fsum(c) for c in errs]
    except OverflowError:
        return None
    if max(err) > _target(value, rel_tol, abs_tol):
        return None
    return value, err


class _Integral:
    """An integral that must split: its panel heap, exact totals and counts."""

    def __init__(self, owner: int, edges: list[float], vector: bool, k: int) -> None:
        self.owner = owner
        self.center = 0.5 * (edges[0] + edges[-1])
        # whether the integrand has a component axis
        self.vector = vector
        # the live panels as (-max err, lo, hi, values, err units, floors,
        # depth), values and floors as k floats and the estimates as k
        # integers in units of 2**-1074, converted once: the top is the
        # leftmost worst panel, and lo tells panels apart, so ties do not
        # reach the lists
        self.heap: list[tuple] = []
        # per component, the exact sums of the live panels' values and
        # estimates, in units of 2**-1074, and the float sum of their
        # estimate floors, which only tells when to give up
        self.total = self.total_err = [0] * k
        self.floor = [0.0] * k
        self.evaluations = 0
        # the calls of the integrand that evaluated its panels, starting
        # with the first round's
        self.kernel_calls = 1
        # the panels to add next, as (lo, hi), and their depth: the initial
        # panels, then the two halves of each split
        self.todo = list(zip(edges[:-1], edges[1:]))
        self.depth = 0
        # the panels for the next call of the integrand: those of todo, then
        # the look-ahead halves
        self.pending = self.todo
        # evaluated look-ahead halves, (lo, hi) -> (values, errs, floors)
        self.ready: dict = {}

    def advance(
        self,
        values: list[list[float]],
        errs: list[list[float]],
        floors: list[list[float]],
        rel_tol: float,
        abs_tol: float,
        max_depth: int,
        max_panels: int,
    ) -> QuadratureResult | TrapcavError | None:
        """Take the evaluated pending panels, then step while the next are ready.

        ``values``, ``errs`` and ``floors`` hold k floats per pending panel.
        Returns the outcome once the integral has finished, or None after
        setting the pending panels: the panels to add, then the look-ahead.
        """
        n = len(self.todo)
        ready = self.ready
        if len(values) > n:
            ready.update(zip(self.pending[n:], zip(values[n:], errs[n:], floors[n:])))
            del values[n:], errs[n:], floors[n:]
        while True:
            self._add(values, errs, floors)
            outcome = self._step(rel_tol, abs_tol, max_depth, max_panels)
            if outcome is not None:
                return outcome
            if not (ready and all(map(ready.__contains__, self.todo))):
                break
            values, errs, floors = zip(*map(ready.pop, self.todo))
        self.pending = self.todo + self._look_ahead(max_depth, max_panels)
        return None

    def _add(
        self, values: list[list[float]], errs: list[list[float]], floors: list[list[float]]
    ) -> None:
        # the panels of todo, with these values, estimates and floors, join
        # the heap and the totals; each keeps its estimates' units
        units = [list(map(_fixed, e)) for e in errs]
        for (lo, hi), v, e, u, fl in zip(self.todo, values, errs, units, floors):
            heapq.heappush(self.heap, (-max(e), lo, hi, v, u, fl, self.depth))
        self.total = _plus(self.total, values)
        self.total_err = [t + sum(c) for t, c in zip(self.total_err, zip(*units))]
        self.floor = [t + sum(c) for t, c in zip(self.floor, zip(*floors))]
        self.evaluations += 15 * len(values)

    def _step(
        self, rel_tol: float, abs_tol: float, max_depth: int, max_panels: int
    ) -> QuadratureResult | TrapcavError | None:
        # test for convergence, else make the halves of the worst panel the
        # panels to add
        value = list(map(_rounded, self.total))
        err = list(map(_rounded, self.total_err))
        for sums in (value, err):
            if not all(map(math.isfinite, sums)):
                # finite panels whose total lies beyond the float range
                return NonFiniteSample(self.center, _value(sums, self.vector))
        self.target = _target(value, rel_tol, abs_tol)
        if max(err) <= self.target:
            return QuadratureResult(
                _value(value, self.vector),
                _value(err, self.vector),
                self.evaluations,
                True,
                self.kernel_calls,
            )
        _, p_lo, p_hi, values, units, floors, depth = self.heap[0]
        # each estimate is at least its floor, and the halves' integrals of
        # |f| sum to about their parent's: once the floors alone exceed the
        # target, splitting cannot meet it
        stuck = max(self.floor) > self.target
        if stuck or depth >= max_depth or len(self.heap) >= max_panels:
            return NotConverged(
                _value(value, self.vector),
                _value(err, self.vector),
                self.evaluations,
                self.kernel_calls,
            )
        heapq.heappop(self.heap)
        self.total = _minus(self.total, values)
        self.total_err = [t - u for t, u in zip(self.total_err, units)]
        self.floor = [t - x for t, x in zip(self.floor, floors)]
        mid = 0.5 * (p_lo + p_hi)
        self.todo = [(p_lo, mid), (mid, p_hi)]
        self.depth = depth + 1
        return None

    def _look_ahead(self, max_depth: int, max_panels: int) -> list[tuple[float, float]]:
        """The halves not yet evaluated of the live panels the loop must split.

        Those are the fewest worst live panels whose removal brings every
        component's estimate sum under the last target: the loop splits the
        worst panel first and halves add estimates, so while one of them is
        live it cannot stop, unless the target grows.  The look-ahead ends
        at a panel of ``max_depth`` and at the splits left under
        ``max_panels`` after the one under way.
        """
        # a remaining total rounds above the target exactly when it reaches
        # this many units
        over = _threshold(self.target)
        left = self.total_err
        halves: list[tuple[float, float]] = []
        heap = self.heap.copy()
        room = max_panels - len(heap) - 2
        # the live panels in the loop's order, worst first, while needed;
        # left is the exact sum of the estimates of those not taken, so it
        # meets the target before the heap runs out
        while room > 0 and max(left) >= over:
            _, lo, hi, _, units, _, depth = heapq.heappop(heap)
            if depth >= max_depth:
                break
            mid = 0.5 * (lo + hi)
            halves += [half for half in ((lo, mid), (mid, hi)) if half not in self.ready]
            left = [t - u for t, u in zip(left, units)]
            room -= 1
        return halves


def _first_round(
    f: BatchIntegrand,
    firsts: list[tuple[int, list[float]]],
    rel_tol: float,
    abs_tol: float,
    max_depth: int,
    max_panels: int,
    outcomes: list,
) -> list[_Integral]:
    """The initial panels of every integral in one call of ``f``, and their test.

    ``firsts`` lists (owner, edges) per integral, ``edges`` the bounds and
    breakpoints in order.  An integral whose initial panels meet its target
    (:func:`_initial_sums`) gets its result in ``outcomes`` at once, with
    no per-integral state; the others become :class:`_Integral` objects
    that take those panels and are returned with their next panels
    pending, unless they finish on them (their outcome then also goes to
    ``outcomes``).  When the call raises a :class:`TrapcavError`, each
    integral of several is evaluated alone, and a lone one finishes with
    the exception, so an error stays with its own integral.
    """
    counts = [len(edges) - 1 for _, edges in firsts]
    lo = [x for _, edges in firsts for x in edges[:-1]]
    hi = [x for _, edges in firsts for x in edges[1:]]
    owner = np.repeat([item[0] for item in firsts], [15 * n for n in counts])
    try:
        values, errs, floors = _gk15(lambda x: f(x, owner), lo, hi)
    except TrapcavError as err:
        if len(firsts) == 1:
            outcomes[firsts[0][0]] = err
            return []
        args = (rel_tol, abs_tol, max_depth, max_panels, outcomes)
        return [item for first in firsts for item in _first_round(f, [first], *args)]
    vector = values.ndim > 1
    k = values.size // len(lo)
    # per component, one list of the floats of every panel
    values, errs, floors = (a.reshape(len(lo), k).T.tolist() for a in (values, errs, floors))
    live, start = [], 0
    for (owner, edges), n in zip(firsts, counts):
        stop = start + n
        v, e = [c[start:stop] for c in values], [c[start:stop] for c in errs]
        sums = _initial_sums(v, e, rel_tol, abs_tol)
        if sums is not None:
            value, err = sums
            outcomes[owner] = QuadratureResult(
                _value(value, vector), _value(err, vector), 15 * n, True, 1
            )
        else:
            # the panels as rows of k floats
            rows = [list(zip(*c)) for c in (v, e, [c[start:stop] for c in floors])]
            item = _Integral(owner, edges, vector, k)
            outcome = item.advance(*rows, rel_tol, abs_tol, max_depth, max_panels)
            if outcome is None:
                live.append(item)
            else:
                outcomes[owner] = outcome
        start = stop
    return live


def _evaluate(f: BatchIntegrand, batch: list[_Integral]) -> list:
    """Every integral's pending panels in one call of ``f``.

    Returns, per integral, the (values, errors, floors) of its pending
    panels, as lists of k floats per panel, or the exception that the panels
    it needs now raise, and tells each integral that the call evaluated its
    panels.  When the batched call raises, each integral of a batch of
    several is evaluated alone, so an error stays with its integral, and a
    lone integral is evaluated again without its look-ahead, so a
    look-ahead panel cannot change an outcome; a call that raised counts
    for no integral's ``kernel_calls``.
    """
    p_lo, p_hi = zip(*[panel for item in batch for panel in item.pending])
    owner = np.array([item.owner for item in batch for _ in item.pending]).repeat(15)
    try:
        values, errs, floors = _gk15(lambda x: f(x, owner), p_lo, p_hi)
    except TrapcavError as err:
        if len(batch) > 1:
            return [_evaluate(f, [item])[0] for item in batch]
        (item,) = batch
        if len(item.pending) == len(item.todo):
            return [err]
        item.pending = item.todo
        return _evaluate(f, batch)
    m = len(values)
    values, errs, floors = (a.reshape(m, -1).tolist() for a in (values, errs, floors))
    out, start = [], 0
    for item in batch:
        item.kernel_calls += 1
        stop = start + len(item.pending)
        out.append((values[start:stop], errs[start:stop], floors[start:stop]))
        start = stop
    return out


def integrate_batch(
    f: BatchIntegrand,
    intervals: Sequence[tuple[float, float, Iterable[float]]],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-300,
    max_depth: int = 50,
    max_panels: int = 10_000,
) -> list[QuadratureResult | TrapcavError]:
    """Globally adaptive integrals of ``f`` over many intervals in lock-step.

    ``intervals`` lists one (lo, hi, points) per integral, and ``f(x,
    owner)`` gets the nodes ``x`` of all integrals with the index ``owner``
    of each node's interval; it returns shape (n,) or (k, n), as for
    :func:`integrate_adaptive`, which documents the stopping rule and the
    breakpoints.  The first round evaluates the initial panels of every
    integral in one call of ``f``, as flat arrays of panel edges, and tests
    each integral on the ``math.fsum`` of its own; one that converges there
    is done, with no per-integral state.  The others then advance in
    lock-step: each later round evaluates, in one call of ``f``, the panels
    that every unfinished integral needs next, with the halves of the
    panels it must still split (the module docstring has the rule).
    Returns one outcome per interval, in order: a :class:`QuadratureResult`,
    or the exception that integral alone would raise (:class:`NotConverged`,
    :class:`NonFiniteSample`, or a :class:`TrapcavError` that ``f`` raises
    on its nodes).  Each outcome is bit-identical to the integral's result
    in a batch of its own.
    Out-of-order bounds, bounds of infinite width and bad tolerances raise
    ``ValueError`` for the whole batch, and any other exception of ``f``
    propagates.
    """
    for lo, hi, _ in intervals:
        if not (hi >= lo):
            raise ValueError(f"integration bounds out of order: [{lo!r}, {hi!r}]")
        if not math.isfinite(hi - lo):
            raise ValueError(f"integration bounds must have a finite width: [{lo!r}, {hi!r}]")
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    if not (0.0 <= abs_tol < math.inf):
        raise ValueError(f"abs_tol must be non-negative and finite, got {abs_tol!r}")

    outcomes: list = [None] * len(intervals)
    firsts = []
    for owner, (lo, hi, points) in enumerate(intervals):
        if hi > lo:
            firsts.append((owner, [lo, *sorted({p for p in points if lo < p < hi}), hi]))
            continue
        # an empty interval: one node at lo tells the integrand's shape
        try:
            shape = np.shape(f(np.array([lo]), np.array([owner])))[:-1]
            zero = _shaped(np.zeros(shape))
            outcomes[owner] = QuadratureResult(zero, zero, 0, True)
        except TrapcavError as err:
            outcomes[owner] = err
    if not firsts:
        return outcomes
    live = _first_round(f, firsts, rel_tol, abs_tol, max_depth, max_panels, outcomes)
    while live:
        for item, panels in zip(live, _evaluate(f, live)):
            if isinstance(panels, TrapcavError):
                outcomes[item.owner] = panels
            else:
                outcomes[item.owner] = item.advance(
                    *panels, rel_tol, abs_tol, max_depth, max_panels
                )
        live = [item for item in live if outcomes[item.owner] is None]
    return outcomes


def integrate_adaptive(
    f: Integrand,
    lo: float,
    hi: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-300,
    max_depth: int = 50,
    max_panels: int = 10_000,
    points: Iterable[float] = (),
) -> QuadratureResult:
    """Globally adaptive integral of ``f`` over [lo, hi].

    ``f`` takes a 1-D array of n nodes and returns an array of shape (n,)
    for a scalar integrand or (k, n) for k components (a tuple of k arrays
    will do); the value and error estimate then come back as a float or a
    tuple of k floats.  All initial panels are evaluated in one call of
    ``f``, and the first convergence test sums them with ``math.fsum``: an
    integral that passes it takes that one call.  Each later call evaluates
    both halves of the split under way and of the worst panels the loop
    must still split, so a run of splits can take no further call.  ``evaluations`` counts the nodes of the panels
    the loop used, and ``kernel_calls`` the calls of ``f`` that evaluated
    them.  Convergence means
    the largest component of the summed panel error estimate is at most
    max(rel_tol * max_i |value_i|, abs_tol), so a component that integrates
    to (nearly) zero is held to the scale of the largest one.  On failure
    raises :class:`NotConverged` carrying the best value, its estimate, and
    both counts.  ``max_panels`` is a safety valve against
    integrands whose error estimates never shrink anywhere.  An empty
    interval integrates to zero in the integrand's shape; ``f`` is called
    once on the single node ``lo`` to learn that shape, and no evaluation
    is counted.

    ``points`` are breakpoints where the initial panels meet, as in
    QUADPACK's QAGP: place them where ``f`` changes on a scale much smaller
    than [lo, hi], which the first panels would otherwise never sample.
    Points outside (lo, hi), duplicates and NaN are ignored.

    The panel to split, the one with the largest error estimate (the
    leftmost among equals), comes off a heap.  The panel values and
    estimates are summed exactly and rounded once, for the convergence test
    and for the reported value and estimate, so results match a loop that
    re-sums every panel with ``math.fsum`` after each split.  A panel or
    total beyond the float range raises :class:`NonFiniteSample` at its
    center.  Each estimate is at least :data:`REL_TOL_FLOOR` (1.11e-14) of
    the integral of ``|f|``, so a smaller ``rel_tol`` is met only through
    ``abs_tol``, and the loop stops unconverged once those floors, summed
    over the live panels, exceed the target.  Bounds whose width ``hi -
    lo`` is not finite raise ``ValueError``.  This is
    :func:`integrate_batch` on one interval.
    """
    (outcome,) = integrate_batch(
        lambda x, owner: f(x), [(lo, hi, points)], rel_tol, abs_tol, max_depth, max_panels
    )
    if isinstance(outcome, TrapcavError):
        raise outcome
    return outcome
