"""Adaptive Gauss-Kronrod integration and pairwise reduction.

Panels use the 7-point Gauss / 15-point Kronrod pair; the difference between
the two rules gives the per-panel error estimate (sharpened by the usual
scaled-residual inflation so the estimate stays honest on rough panels).

The integrand takes a 1-D array of nodes and returns one value per node, or
one row per component (shape (n,) or (k, n)); the value and error estimate
come back as a float or a tuple of k floats.  All components share the
panels, and every norm is the max-norm over components: the panel with the
largest component estimate splits until the largest summed estimate meets
max(rel_tol * max |value_i|, abs_tol), a panel reaches ``max_depth``
halvings, or the panel list hits a safety cap.  For a scalar integrand this
is the plain rule |error| <= max(rel_tol * |value|, abs_tol).

:func:`integrate_batch` runs many independent integrals in lock-step; its
integrand also gets, for every node, the index of the integral the node
belongs to.  Each round, every integral that has not finished runs one
test-then-split step on its own heap and running totals, and then the new
panels of all of them (every initial panel in the first round, both halves
of a split after that) are evaluated in one call of the integrand.  An
integral takes exactly the steps it would take alone, and gives the same
bits: the kernel works node by node, and the rules reduce each panel with a
per-row dot product (``np.vecdot``), whose result does not depend on how
many panels share the call, as a BLAS matrix-vector product's does.  A
failure stays with its own integral: when the batched call raises a
:class:`TrapcavError` (a :class:`NonFiniteSample`, or a typed error of the
integrand, such as the kernel's), each integral of the round is evaluated
on its own, and one that raises finishes with that exception while the
others go on.  :func:`integrate_adaptive` is the batch
of one.

Every accumulation that feeds a reported value runs through
:func:`pairwise_sum`, a fixed stride-pair tree, so identical inputs produce
bit-identical outputs regardless of chunking.
"""

from __future__ import annotations

import heapq
import itertools
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


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its error estimate and cost accounting.

    ``value`` and ``error_estimate`` have the integrand's shape: floats, or
    tuples of floats of the integrand's length.
    """

    value: Value
    error_estimate: Value
    evaluations: int
    converged: bool
    method: str = "gauss-kronrod-7-15"


def pairwise_sum(values, axis: int = -1):
    """Sum along ``axis`` with a fixed adjacent-pair tree.

    The tree pairs elements (0,1), (2,3), ... and carries an odd trailing
    element to the next round unchanged, so the reduction order depends only
    on the length, never on chunking.  Returns a float for 1-D input.
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


def _gk15(f: Integrand, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [lo_i, hi_i], all nodes in one call of ``f``.

    ``lo`` and ``hi`` are 1-D arrays of m panel edges, ``lo <= hi``; ``f``
    gets the 15 m nodes panel after panel.  Returns (value, error estimate)
    arrays of shape (m,) for a scalar integrand and (m, k) for one of k
    components.  Raises :class:`NonFiniteSample` at the first node where
    any component is NaN or infinite.
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
    fv = fv.reshape(fv.shape[:-1] + (lo.size, 15))  # (m, 15) or (k, m, 15)
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
    # panels first
    return (resk * half).T, np.maximum(err, 50.0 * _EPS * resabs).T


def _shaped(a) -> Value:
    # a float for a float integrand, a tuple of floats for a vector one
    out = np.asarray(a).tolist()
    return tuple(out) if isinstance(out, list) else out


class _Integral:
    """One integral of a batch: its panels, heap, running totals and counts."""

    def __init__(self, owner: int, edges: list[float]) -> None:
        self.owner = owner
        # panels by key: (lo, hi, values, errs, depth), values and errs as
        # lists of k floats; the heap holds (-max err, lo, hi, key), so its
        # top is the leftmost worst panel
        self.panels: dict[int, tuple] = {}
        self.heap: list[tuple] = []
        self.keys = itertools.count()
        self.evaluations = 0
        # the panels awaiting evaluation, and the panel they split (if any)
        self.pending = (edges[:-1], edges[1:], 0)
        self.parent: tuple | None = None

    def absorb(self, values: np.ndarray, errs: np.ndarray) -> None:
        """Add the evaluated pending panels and update the running totals."""
        p_lo, p_hi, depth = self.pending
        m = len(p_lo)
        self.shape = values.shape[1:]
        values, errs = values.reshape(m, -1).tolist(), errs.reshape(m, -1).tolist()
        for panel in zip(p_lo, p_hi, values, errs):
            key = next(self.keys)
            self.panels[key] = (*panel, depth)
            heapq.heappush(self.heap, (-max(panel[3]), panel[0], panel[1], key))
        self.evaluations += 15 * m
        if self.parent is None:
            # running totals, the number of terms they have summed, and the
            # sums of those terms' magnitudes, which bound their rounding
            self.total = [sum(c) for c in zip(*values)]
            self.total_err = [sum(c) for c in zip(*errs)]
            self.mass = [sum(map(abs, c)) for c in zip(*values)]
            self.err_mass = self.total_err
            self.terms = m
            return
        (v1, v2), (e1, e2), (v, e) = values, errs, self.parent
        self.total = [t + (a + b - c) for t, a, b, c in zip(self.total, v1, v2, v)]
        self.total_err = [t + (a + b - c) for t, a, b, c in zip(self.total_err, e1, e2, e)]
        self.mass = [t + (abs(a) + abs(b) + abs(c)) for t, a, b, c in zip(self.mass, v1, v2, v)]
        self.err_mass = [t + (a + b + c) for t, a, b, c in zip(self.err_mass, e1, e2, e)]
        self.terms += 3

    def _pairwise_totals(self) -> tuple[np.ndarray, np.ndarray]:
        tiles = sorted(self.panels.values(), key=lambda p: (p[0], p[1]))
        return (
            pairwise_sum(np.array([p[2] for p in tiles]).T).reshape(self.shape),
            pairwise_sum(np.array([p[3] for p in tiles]).T).reshape(self.shape),
        )

    def step(
        self, rel_tol: float, abs_tol: float, max_depth: int, max_panels: int
    ) -> QuadratureResult | NotConverged | None:
        """Test for convergence, else split the worst panel.

        Returns the outcome once the integral has finished, or None after
        making the two halves of its worst panel the pending panels.
        """
        # |running - pairwise| <= 2 terms eps mass, with a factor 2 to spare
        slack = 4.0 * self.terms * _EPS
        sums = None
        if max(t - slack * m for t, m in zip(self.total_err, self.err_mass)) <= max(
            rel_tol * max(abs(t) + slack * m for t, m in zip(self.total, self.mass)), abs_tol
        ):
            sums = self._pairwise_totals()
            if np.max(sums[1]) <= max(rel_tol * np.max(np.abs(sums[0])), abs_tol):
                return QuadratureResult(
                    _shaped(sums[0]), _shaped(sums[1]), self.evaluations, True
                )
        key = self.heap[0][3]
        p_lo, p_hi, value, err, depth = self.panels[key]
        if depth >= max_depth or len(self.panels) >= max_panels:
            best, best_err = sums or self._pairwise_totals()
            return NotConverged(_shaped(best), _shaped(best_err), self.evaluations)
        heapq.heappop(self.heap)
        del self.panels[key]
        mid = 0.5 * (p_lo + p_hi)
        self.pending = ([p_lo, mid], [mid, p_hi], depth + 1)
        self.parent = (value, err)
        return None


def _evaluate(f: BatchIntegrand, batch: list[_Integral]) -> list:
    """Every integral's pending panels in one call of ``f``.

    Returns, per integral, its (values, errors) or the exception its own
    panels raise.  When the batched call raises, each integral of a batch
    of several is evaluated alone, so an error stays with its integral.
    """
    p_lo, p_hi, owners = [], [], []
    for item in batch:
        p_lo += item.pending[0]
        p_hi += item.pending[1]
        owners += [item.owner] * len(item.pending[0])
    owner = np.array(owners).repeat(15)
    try:
        values, errs = _gk15(lambda x: f(x, owner), p_lo, p_hi)
    except TrapcavError as err:
        if len(batch) == 1:
            return [err]
        return [_evaluate(f, [item])[0] for item in batch]
    out, start = [], 0
    for item in batch:
        stop = start + len(item.pending[0])
        out.append((values[start:stop], errs[start:stop]))
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
    breakpoints.  Each round evaluates the new panels of every unfinished
    integral in one call of ``f``.  Returns one outcome per interval, in
    order: a :class:`QuadratureResult`, or the exception that integral
    alone would raise (:class:`NotConverged`, :class:`NonFiniteSample`, or
    a :class:`TrapcavError` that ``f`` raises on its nodes).  Each outcome
    is bit-identical to the integral's result in a batch of its own.
    Out-of-order bounds and bad tolerances raise ``ValueError`` for the
    whole batch, and any other exception of ``f`` propagates.
    """
    for lo, hi, _ in intervals:
        if not (hi >= lo):
            raise ValueError(f"integration bounds out of order: [{lo!r}, {hi!r}]")
    if not (rel_tol > 0.0):
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    if not (abs_tol >= 0.0):
        raise ValueError(f"abs_tol must be non-negative, got {abs_tol!r}")

    outcomes: list = [None] * len(intervals)
    live = []
    for owner, (lo, hi, points) in enumerate(intervals):
        if hi > lo:
            edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
            live.append(_Integral(owner, edges))
            continue
        # an empty interval: one node at lo tells the integrand's shape
        try:
            shape = np.shape(f(np.array([lo]), np.array([owner])))[:-1]
            zero = _shaped(np.zeros(shape))
            outcomes[owner] = QuadratureResult(zero, zero, 0, True)
        except TrapcavError as err:
            outcomes[owner] = err
    while live:
        running = []
        for item, panels in zip(live, _evaluate(f, live)):
            if isinstance(panels, TrapcavError):
                outcomes[item.owner] = panels
                continue
            item.absorb(*panels)
            outcome = item.step(rel_tol, abs_tol, max_depth, max_panels)
            if outcome is None:
                running.append(item)
            else:
                outcomes[item.owner] = outcome
        live = running
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
    ``f``, and both halves of each split in one more.  Convergence means
    the largest component of the summed panel error estimate is at most
    max(rel_tol * max_i |value_i|, abs_tol), so a component that integrates
    to (nearly) zero is held to the scale of the largest one.  On failure
    raises :class:`NotConverged` carrying the best value, its estimate, and
    the evaluation count.  ``max_panels`` is a safety valve against
    integrands whose error estimates never shrink anywhere.  An empty
    interval integrates to zero in the integrand's shape; ``f`` is called
    once on the single node ``lo`` to learn that shape, and no evaluation
    is counted.

    ``points`` are breakpoints where the initial panels meet, as in
    QUADPACK's QAGP: place them where ``f`` changes on a scale much smaller
    than [lo, hi], which the first panels would otherwise never sample.
    Points outside (lo, hi), duplicates and NaN are ignored.

    The panel to split, the one with the largest error estimate (the
    leftmost among equals), comes off a heap.  Running totals of the panel
    values and estimates serve only to skip the convergence test while,
    allowing for their rounding, it certainly fails; the test itself, and
    every reported value, sums the panels with :func:`pairwise_sum` in
    interval order, so results match a loop that re-sums after each split.
    This is :func:`integrate_batch` on one interval.
    """
    (outcome,) = integrate_batch(
        lambda x, owner: f(x), [(lo, hi, points)], rel_tol, abs_tol, max_depth, max_panels
    )
    if isinstance(outcome, TrapcavError):
        raise outcome
    return outcome
