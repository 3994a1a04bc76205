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
halvings, or the panel list hits a safety cap.  For a scalar integrand this
is the plain rule |error| <= max(rel_tol * |value|, abs_tol).

Each integral sums its live panels' values and estimates exactly, as
integers in units of 2**-1074, and every test and result rounds those sums
once: a result is the ``math.fsum`` of its final panels, whatever the order
in which they were made.

:func:`integrate_batch` runs many independent integrals in lock-step; its
integrand also gets, for every node, the index of the integral the node
belongs to.  Each round, every integral that has not finished runs one
test-then-split step on its own panel heap and totals, and then the new
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
others go on.  :func:`integrate_adaptive` is the batch of one.
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


def _fixed(x: float) -> int:
    """The finite float ``x`` exactly, in units of 2**-1074 (the least subnormal)."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _rounded(total: int) -> float:
    """A total in units of 2**-1074, rounded once; +-inf beyond the float range."""
    try:
        return total / (1 << 1074)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _gk15(f: Integrand, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [lo_i, hi_i], all nodes in one call of ``f``.

    ``lo`` and ``hi`` are 1-D arrays of m panel edges, ``lo <= hi``; ``f``
    gets the 15 m nodes panel after panel.  Returns (value, error estimate)
    arrays of shape (m,) for a scalar integrand and (m, k) for one of k
    components.  Raises :class:`NonFiniteSample` at the first node where
    any component is NaN or infinite, or else at the center of the first
    panel whose value or estimate overflows.
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
    value, err = (resk * half).T, np.maximum(err, REL_TOL_FLOOR * resabs).T
    finite = np.isfinite(value) & np.isfinite(err)
    if not finite.all():
        j = int(np.argmin(finite.reshape(lo.size, -1).all(axis=1)))
        bad = value[j] if not np.isfinite(value[j]).all() else err[j]
        raise NonFiniteSample(float(0.5 * (lo[j] + hi[j])), _shaped(bad))
    return value, err


def _shaped(a) -> Value:
    # a float for a float integrand, a tuple of floats for a vector one
    out = np.asarray(a).tolist()
    return tuple(out) if isinstance(out, list) else out


class _Integral:
    """One integral of a batch: its panel heap, exact totals and counts."""

    def __init__(self, owner: int, edges: list[float]) -> None:
        self.owner = owner
        self.center = 0.5 * (edges[0] + edges[-1])
        # the live panels as (-max err, lo, hi, values, errs, depth), values
        # and errs as lists of k floats: the top is the leftmost worst panel,
        # and lo tells panels apart, so ties do not reach the lists
        self.heap: list[tuple] = []
        self.evaluations = 0
        # the panels awaiting evaluation
        self.pending = (edges[:-1], edges[1:], 0)

    def absorb(self, values: np.ndarray, errs: np.ndarray) -> None:
        """Add the evaluated pending panels to the heap and the totals."""
        p_lo, p_hi, depth = self.pending
        m = len(p_lo)
        self.vector = values.ndim > 1
        values, errs = values.reshape(m, -1).tolist(), errs.reshape(m, -1).tolist()
        for panel in zip(p_lo, p_hi, values, errs):
            heapq.heappush(self.heap, (-max(panel[3]), *panel, depth))
        if not self.evaluations:
            # per component, the exact sums of the live panels' values and
            # estimates, in units of 2**-1074
            self.total = self.total_err = [0] * len(values[0])
        self.total = [t + sum(map(_fixed, c)) for t, c in zip(self.total, zip(*values))]
        self.total_err = [t + sum(map(_fixed, c)) for t, c in zip(self.total_err, zip(*errs))]
        self.evaluations += 15 * m

    def step(
        self, rel_tol: float, abs_tol: float, max_depth: int, max_panels: int
    ) -> QuadratureResult | TrapcavError | None:
        """Test for convergence, else split the worst panel.

        Returns the outcome once the integral has finished, or None after
        making the two halves of its worst panel the pending panels.
        """
        value = [_rounded(t) for t in self.total]
        err = [_rounded(t) for t in self.total_err]
        shaped = (tuple(value), tuple(err)) if self.vector else (value[0], err[0])
        for sums, out in zip((value, err), shaped):
            if not all(map(math.isfinite, sums)):
                # finite panels whose total lies beyond the float range
                return NonFiniteSample(self.center, out)
        if max(err) <= max(rel_tol * max(map(abs, value)), abs_tol):
            return QuadratureResult(*shaped, self.evaluations, True)
        _, p_lo, p_hi, values, errs, depth = self.heap[0]
        if depth >= max_depth or len(self.heap) >= max_panels:
            return NotConverged(*shaped, self.evaluations)
        heapq.heappop(self.heap)
        self.total = [t - _fixed(v) for t, v in zip(self.total, values)]
        self.total_err = [t - _fixed(e) for t, e in zip(self.total_err, errs)]
        mid = 0.5 * (p_lo + p_hi)
        self.pending = ([p_lo, mid], [mid, p_hi], depth + 1)
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
        for item, panels in zip(live, _evaluate(f, live)):
            if isinstance(panels, TrapcavError):
                outcomes[item.owner] = panels
            else:
                item.absorb(*panels)
                outcomes[item.owner] = item.step(rel_tol, abs_tol, max_depth, max_panels)
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
    leftmost among equals), comes off a heap.  The panel values and
    estimates are summed exactly and rounded once, for the convergence test
    and for the reported value and estimate, so results match a loop that
    re-sums every panel with ``math.fsum`` after each split.  A panel or
    total beyond the float range raises :class:`NonFiniteSample` at its
    center.  Each estimate is at least :data:`REL_TOL_FLOOR` (1.11e-14) of
    the integral of ``|f|``, so a smaller ``rel_tol`` is met only through
    ``abs_tol``.  This is :func:`integrate_batch` on one interval.
    """
    (outcome,) = integrate_batch(
        lambda x, owner: f(x), [(lo, hi, points)], rel_tol, abs_tol, max_depth, max_panels
    )
    if isinstance(outcome, TrapcavError):
        raise outcome
    return outcome
