"""Adaptive Gauss-Kronrod integration and pairwise reduction.

Panels use the 7-point Gauss / 15-point Kronrod pair; the difference between
the two rules gives the per-panel error estimate (sharpened by the usual
scaled-residual inflation so the estimate stays honest on rough panels).

The integrand takes a 1-D array of nodes and returns one value per node, or
one row per component (shape (n,) or (k, n)); the value and error estimate
come back as a float or a tuple of k floats.  Each call evaluates every node
of a batch of panels: all initial panels at once, then both halves of each
split.  All components share the panels, and every norm is the max-norm over
components: the panel with the largest component estimate splits until the
largest summed estimate meets max(rel_tol * max |value_i|, abs_tol), a panel
reaches ``max_depth`` halvings, or the panel list hits a safety cap.  For a
scalar integrand this is the plain rule |error| <= max(rel_tol * |value|,
abs_tol).

Every accumulation that feeds a reported value runs through
:func:`pairwise_sum`, a fixed stride-pair tree, so identical inputs produce
bit-identical outputs regardless of chunking.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NonFiniteSample, NotConverged

#: A float, or a fixed-length tuple of floats for a vector integrand.
Value = float | tuple[float, ...]

#: Maps a 1-D array of n nodes to shape (n,), or (k, n) for k components
#: (an array, or a tuple of k arrays).
Integrand = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, ...]"]

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
    resk = fv @ _WK15
    resg = fv @ _WG15
    resabs = (np.abs(fv) @ _WK15) * half
    resasc = (np.abs(fv - 0.5 * resk[..., None]) @ _WK15) * half
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
    """
    if not (hi >= lo):
        raise ValueError(f"integration bounds out of order: [{lo!r}, {hi!r}]")
    if not (rel_tol > 0.0):
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    if not (abs_tol >= 0.0):
        raise ValueError(f"abs_tol must be non-negative, got {abs_tol!r}")
    if hi == lo:
        zero = _shaped(np.zeros(np.shape(f(np.array([lo])))[:-1]))
        return QuadratureResult(zero, zero, 0, True)

    # panels by key: (lo, hi, value, err, depth); the heap holds
    # (-max err, lo, hi, key), so its top is the leftmost worst panel
    panels: dict[int, tuple] = {}
    heap: list[tuple] = []
    keys = itertools.count()

    def add(p_lo: list, p_hi: list, depth: int) -> tuple[np.ndarray, np.ndarray]:
        values, errs = _gk15(f, p_lo, p_hi)
        worst = errs.reshape(len(errs), -1).max(axis=1).tolist()
        for panel in zip(p_lo, p_hi, values, errs, worst):
            key = next(keys)
            panels[key] = (*panel[:4], depth)
            heapq.heappush(heap, (-panel[4], panel[0], panel[1], key))
        return values, errs

    def pairwise_totals() -> tuple[np.ndarray, np.ndarray]:
        tiles = sorted(panels.values(), key=lambda p: (p[0], p[1]))
        return (
            pairwise_sum([p[2] for p in tiles], axis=0),
            pairwise_sum([p[3] for p in tiles], axis=0),
        )

    edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    values, errs = add(edges[:-1], edges[1:], 0)
    evaluations = 15 * len(values)
    # running totals, the number of terms they have summed, and the sums of
    # those terms' magnitudes, which bound their rounding
    total, total_err = values.sum(axis=0), errs.sum(axis=0)
    mass, err_mass = np.abs(values).sum(axis=0), total_err
    terms = len(values)
    while True:
        # |running - pairwise| <= 2 terms eps mass, with a factor 2 to spare
        slack = 4.0 * terms * _EPS
        sums = None
        if np.max(total_err - slack * err_mass) <= max(
            rel_tol * np.max(np.abs(total) + slack * mass), abs_tol
        ):
            sums = pairwise_totals()
            if np.max(sums[1]) <= max(rel_tol * np.max(np.abs(sums[0])), abs_tol):
                return QuadratureResult(_shaped(sums[0]), _shaped(sums[1]), evaluations, True)
        key = heap[0][3]
        p_lo, p_hi, value, err, depth = panels[key]
        if depth >= max_depth or len(panels) >= max_panels:
            best, best_err = sums or pairwise_totals()
            raise NotConverged(_shaped(best), _shaped(best_err), evaluations)
        heapq.heappop(heap)
        del panels[key]
        mid = 0.5 * (p_lo + p_hi)
        values, errs = add([p_lo, mid], [mid, p_hi], depth + 1)
        evaluations += 30
        total = total + (values[0] + values[1] - value)
        total_err = total_err + (errs[0] + errs[1] - err)
        mass = mass + (np.abs(values[0]) + np.abs(values[1]) + np.abs(value))
        err_mass = err_mass + (errs[0] + errs[1] + err)
        terms += 3
