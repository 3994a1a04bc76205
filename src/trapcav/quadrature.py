"""Adaptive Gauss-Kronrod integration and pairwise reduction.

Panels use the 7-point Gauss / 15-point Kronrod pair; the difference between
the two rules gives the per-panel error estimate (sharpened by the usual
scaled-residual inflation so the estimate stays honest on rough panels).

The integrand may return a float or a fixed-length tuple of floats; the
value and error estimate then come back in the same shape.  All components
share the panels, and every norm is the max-norm over components: the panel
with the largest component estimate splits until the largest summed estimate
meets max(rel_tol * max |value_i|, abs_tol), a panel reaches ``max_depth``
halvings, or the panel list hits a safety cap.  For a float integrand this is
the plain rule |error| <= max(rel_tol * |value|, abs_tol).

Every accumulation that feeds a reported value runs through
:func:`pairwise_sum`, a fixed stride-pair tree, so identical inputs produce
bit-identical outputs regardless of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NonFiniteSample, NotConverged

#: A float, or a fixed-length tuple of floats for a vector integrand.
Value = float | tuple[float, ...]

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


def _gk15(f: Callable[[float], Value], lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Kronrod panel: (value, error estimate), in the integrand's shape."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = (center + half * _X15).tolist()
    raw = [f(x) for x in xs]
    fv = np.array(raw, dtype=float)
    if not np.isfinite(fv).all():
        x, v = next((x, v) for x, v in zip(xs, raw) if not np.isfinite(v).all())
        raise NonFiniteSample(x, v)
    resk = _WK15 @ fv
    resg = _WG15 @ fv
    resabs = (_WK15 @ np.abs(fv)) * abs(half)
    resasc = (_WK15 @ np.abs(fv - 0.5 * resk)) * abs(half)
    err = np.abs((resk - resg) * half)
    # inflate towards resasc unless the rules genuinely agree
    inflate = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(inflate, resasc, 1.0)
    err = np.where(inflate, resasc * np.minimum(1.0, ratio**1.5), err)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs)


def _shaped(a) -> Value:
    # a float for a float integrand, a tuple of floats for a vector one
    out = np.asarray(a).tolist()
    return tuple(out) if isinstance(out, list) else out


def integrate_adaptive(
    f: Callable[[float], Value],
    lo: float,
    hi: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-300,
    max_depth: int = 50,
    max_panels: int = 10_000,
    points: Iterable[float] = (),
) -> QuadratureResult:
    """Globally adaptive integral of ``f`` over [lo, hi].

    ``f`` returns a float or a fixed-length tuple of floats.  Convergence
    means the largest component of the summed panel error estimate is at
    most max(rel_tol * max_i |value_i|, abs_tol), so a component that
    integrates to (nearly) zero is held to the scale of the largest one.
    On failure raises :class:`NotConverged` carrying the best value, its
    estimate, and the evaluation count.  ``max_panels`` is a safety valve
    against integrands whose error estimates never shrink anywhere.  An
    empty interval integrates to zero in the integrand's shape; ``f`` is
    called once at ``lo`` to learn that shape, and no evaluation is counted.

    ``points`` are breakpoints where the initial panels meet, as in
    QUADPACK's QAGP: place them where ``f`` changes on a scale much smaller
    than [lo, hi], which the first panels would otherwise never sample.
    Points outside (lo, hi), duplicates and NaN are ignored.
    """
    if not (hi >= lo):
        raise ValueError(f"integration bounds out of order: [{lo!r}, {hi!r}]")
    if not (rel_tol > 0.0):
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    if not (abs_tol >= 0.0):
        raise ValueError(f"abs_tol must be non-negative, got {abs_tol!r}")
    if hi == lo:
        zero = _shaped(np.zeros(np.shape(f(lo))))
        return QuadratureResult(zero, zero, 0, True)

    def panel(p_lo: float, p_hi: float, depth: int) -> tuple:
        value, err = _gk15(f, p_lo, p_hi)
        return (p_lo, p_hi, value, err, float(np.max(err)), depth)

    # panels stay sorted by left edge: (lo, hi, value, err, max err, depth)
    edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    panels = [panel(p_lo, p_hi, 0) for p_lo, p_hi in zip(edges, edges[1:])]
    evaluations = 15 * len(panels)
    while True:
        total = pairwise_sum([p[2] for p in panels], axis=0)
        total_err = pairwise_sum([p[3] for p in panels], axis=0)
        if np.max(total_err) <= max(rel_tol * np.max(np.abs(total)), abs_tol):
            return QuadratureResult(_shaped(total), _shaped(total_err), evaluations, True)
        worst = max(range(len(panels)), key=lambda i: (panels[i][4], -panels[i][0]))
        p_lo, p_hi, _, _, _, depth = panels[worst]
        if depth >= max_depth or len(panels) >= max_panels:
            raise NotConverged(_shaped(total), _shaped(total_err), evaluations)
        mid = 0.5 * (p_lo + p_hi)
        panels[worst : worst + 1] = [panel(p_lo, mid, depth + 1), panel(mid, p_hi, depth + 1)]
        evaluations += 30
