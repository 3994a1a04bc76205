"""Globally adaptive Gauss-Kronrod integration, many panels halved per round.

Panels use the 7-point Gauss / 15-point Kronrod pair; the difference between
the two rules gives the per-panel error estimate (sharpened by the usual
scaled-residual inflation so the estimate stays honest on rough panels).

The integrand takes a 1-D array of nodes and returns one float per node.

The loop runs in rounds.  Each round evaluates its pending panels in one
call of the integrand and one pass of the rules: first the panel [lo, hi],
then the halves of every panel the integral must still split.  It then sums
its live panels' values and estimates with ``math.fsum`` (exactly, with
fractions, when fsum overflows part-way), so a result is the correctly
rounded sum of its final panels.  It stops when the summed estimate meets
max(rel_tol * |value|, abs_tol), or unconverged when the estimate floors of
the live panels (``REL_TOL_FLOOR`` times each one's integral of |f|, which
no split lowers much) alone sum past that target.  Otherwise it halves at
once the fewest worst panels (largest estimate, the leftmost among equals)
whose removal would leave the estimate sum within the target: halves add
estimates, so while they are live the integral cannot stop unless the
target grows.  That set ends before the first panel of ``MAX_DEPTH``
halvings and at the room left under ``MAX_PANELS``; an integral that can
halve nothing stops unconverged.  This is QUADPACK's globally adaptive QAG
with many panels split per round.  Each panel is reduced by its own
per-row dot product (``np.vecdot``), so its bits do not depend on how many
panels share the call, as a BLAS matrix-vector product's would.

This module is a test-side reference, not part of the package's public
names: no ``trapcav`` command calls it, and the tests import it from here
to cross-check the closed forms.  It needs numpy, which only the ``test``
extra installs.
"""

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonFiniteSample, TrapcavError
from .spec import REL_TOL_FLOOR

#: halvings of [lo, hi] beyond which no panel is split
MAX_DEPTH = 50
#: live panels beyond which no panel is split, a safety valve against
#: integrands whose error estimates never shrink anywhere
MAX_PANELS = 10_000

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


class QuadratureResult(NamedTuple):
    """Integral value with its error estimate and cost accounting.

    ``evaluations`` counts the nodes of the panels used.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


class NotConverged(TrapcavError):
    """Adaptive integration stopped early; carries the best estimate found.

    Attributes:
        value: best integral estimate at the point of giving up.
        error_estimate: summed panel error estimate for that value.
        evaluations: integrand evaluations spent.
    """

    def __init__(self, value: float, error_estimate: float, evaluations: int) -> None:
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations
        super().__init__(
            f"quadrature stopped at value={value!r} "
            f"with error estimate {error_estimate!r} after {evaluations} evaluations"
        )


def pairwise_sum(values):
    """Sum along the last axis with a fixed adjacent-pair tree.

    The tree pairs elements (0,1), (2,3), ... and carries an odd trailing
    element to the next round unchanged, so the reduction order depends only
    on the length, never on chunking.  Returns a float for 1-D input.
    It serves the oracle; the adaptive integrals sum their panels with
    ``math.fsum``.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[-1] == 0:
        out = np.zeros(a.shape[:-1])
        return float(out) if out.ndim == 0 else out
    while a.shape[-1] > 1:
        n = a.shape[-1]
        m = 2 * (n // 2)
        paired = a[..., 0:m:2] + a[..., 1:m:2]
        if n % 2:
            paired = np.concatenate([paired, a[..., -1:]], axis=-1)
        a = paired
    out = a[..., 0]
    return float(out) if out.ndim == 0 else out


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Gauss-Kronrod panels [lo_i, hi_i], all nodes in one call of ``f``.

    ``lo`` and ``hi`` are 1-D arrays of m panel edges, ``lo <= hi``; ``f``
    gets the 15 m nodes panel after panel.  Returns the panels' values,
    error estimates and estimate floors as the rows of a (3, m) array.
    The floor, ``REL_TOL_FLOOR`` times the panel's integral of ``|f|``, is
    the least estimate the panel can have.  Raises
    :class:`NonFiniteSample` at the first node where ``f`` is NaN or
    infinite, or else at the center of the first panel whose value or
    estimate overflows.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    xs = ((0.5 * (lo + hi))[:, None] + half[:, None] * _X15).ravel()
    fv = np.asarray(f(xs), dtype=float)
    if fv.shape != xs.shape:
        raise ValueError(f"integrand returned shape {fv.shape} for {xs.size} nodes")
    rules = _rules(fv.reshape(lo.size, 15), half)
    # every Kronrod weight is positive, so a panel with a node that is not
    # finite has a value that is not finite either
    if not np.isfinite(rules[:2]).all():
        bad = ~np.isfinite(fv)
        if bad.any():
            j = int(bad.argmax())
            raise NonFiniteSample(float(xs[j]), float(fv[j]))
        j = int(np.argmin(np.isfinite(rules[:2]).all(axis=0)))
        value, err = rules[:2, j].tolist()
        raise NonFiniteSample(float(0.5 * (lo[j] + hi[j])), err if math.isfinite(value) else value)
    return rules


# samples that are not finite, and finite ones whose panel sums overflow,
# make the rules' arithmetic overflow or go invalid, and _gk15 names such a
# node or panel; a panel whose f is constant divides by its zero resasc, a
# quotient that the rules then discard: numpy need not warn about either
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rules(fv: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Value, error estimate and its floor of sampled panels, shape (m, 15),
    as the rows of a (3, m) array."""
    # one dot product per panel and rule: a panel's bits do not depend on
    # its batch
    resk = np.vecdot(fv, _WK15)
    resg = np.vecdot(fv, _WG15)
    resabs = np.vecdot(np.abs(fv), _WK15)
    resasc = np.vecdot(np.abs(fv - 0.5 * resk[..., None]), _WK15)
    # the value, the estimate, then its floor, and resasc, all scaled
    # to the panel
    out = np.array((resk, np.abs(resk - resg), resabs, resasc)) * half
    value, err, floor, resasc = out
    # inflate towards resasc unless the rules genuinely agree (both nonzero)
    inflate = np.logical_and(resasc, err)
    ratio = 200.0 * err / resasc
    inflated = np.where(inflate, resasc * np.minimum(1.0, ratio**1.5), err)
    floor *= REL_TOL_FLOOR
    np.maximum(inflated, floor, out=err)
    return out[:3]


def _sum(column: list[float]) -> float:
    # the floats' exact sum, rounded once: math.fsum, or a sum of fractions
    # when fsum overflows part-way; +-inf beyond the float range
    try:
        return math.fsum(column)
    except OverflowError:
        total = sum(map(Fraction, column))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-300,
) -> QuadratureResult:
    """Globally adaptive integral of ``f`` over [lo, hi].

    ``f`` takes a 1-D array of n nodes and returns an array of shape (n,);
    any other shape raises ``ValueError``.  The first call of ``f``
    evaluates the panel [lo, hi], and an integral that converges on it
    takes that one call.  Each later call evaluates the halves of every
    panel the loop must still split.  ``evaluations`` counts the nodes of
    the panels the loop made, every one of which it used.  Convergence
    means the summed panel error estimate is at most
    max(rel_tol * |value|, abs_tol).  On failure raises
    :class:`NotConverged` carrying the best value, its estimate and the
    evaluation count.  An empty interval integrates to zero without a call
    of ``f``.

    Each round halves, at once, the fewest panels of largest error estimate
    (the leftmost among equals) whose removal would bring the summed
    estimate within the target.  The panel values and estimates are summed
    with ``math.fsum`` each round, for the convergence test and for the
    reported value and estimate, so results do not depend on the order in
    which the panels were made.  :data:`MAX_DEPTH` and :data:`MAX_PANELS`
    cut that set, and the loop stops unconverged when they leave it empty.
    A panel or total beyond the float range raises :class:`NonFiniteSample`
    at its center.  Each estimate is at least :data:`REL_TOL_FLOOR`
    (1.11e-14) of the integral of ``|f|``, so a smaller ``rel_tol`` is met
    only through ``abs_tol``, and the loop stops unconverged once those
    floors, summed over the live panels, exceed the target.  Out-of-order
    bounds, bounds whose width ``hi - lo`` is not finite and tolerances
    that are not finite raise ``ValueError`` before ``f`` is called.  Any
    exception of ``f`` propagates as it is.
    """
    if not (hi >= lo):
        raise ValueError(f"integration bounds out of order: [{lo!r}, {hi!r}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"integration bounds must have a finite width: [{lo!r}, {hi!r}]")
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    if not (0.0 <= abs_tol < math.inf):
        raise ValueError(f"abs_tol must be non-negative and finite, got {abs_tol!r}")
    if not hi > lo:
        return QuadratureResult(0.0, 0.0, 0, True)
    # the rows of ``pending`` hold the edges and halvings of the panels to
    # evaluate next, at first [lo, hi]; ``edges`` holds those of the live
    # panels, and ``rows`` their values, estimates and floors
    pending = np.array(((lo,), (hi,), (0.0,)))
    edges, rows = pending, np.empty((3, 0))
    evaluations = 0
    while True:
        evaluations += 15 * pending.shape[1]
        rows = np.concatenate((rows, _gk15(f, pending[0], pending[1])), axis=1)
        value, err = map(_sum, rows[:2].tolist())
        target = max(rel_tol * abs(value), abs_tol)
        done = err <= target
        if not (done and math.isfinite(target)):
            # finite panels whose sum lies beyond the float range
            bad = next((s for s in (value, err) if not math.isfinite(s)), None)
            if bad is not None:
                raise NonFiniteSample(0.5 * (lo + hi), bad)
        if done:
            return QuadratureResult(value, err, evaluations, True)
        # the live panels worst first, the leftmost among equals; left[j],
        # the estimate sum of all but the j worst, added from the least
        # up, only falls.  Halves add estimates, so the integral cannot
        # stop while one of the worst panels up to the first that leaves
        # the sum within the target is live, unless the target grows
        order = np.lexsort((edges[1], edges[0], -rows[1]))
        left = rows[1, order[::-1]].cumsum()[::-1]
        count = 1 + np.count_nonzero(left[1:] > target)
        split = edges[:, order[: max(0, min(count, MAX_PANELS - len(order)))]]
        deep = split[2] >= MAX_DEPTH
        if deep.any():
            split = split[:, : int(deep.argmax())]
        # each estimate is at least its floor, and the halves' integrals
        # of |f| sum to about their parent's: once the floors alone
        # exceed the target, splitting cannot meet it
        n = split.shape[1]
        if not n or _sum(rows[2].tolist()) > target:
            raise NotConverged(value, err, evaluations)
        # every left half, then every right half, one halving deeper
        pending = np.concatenate((split, split), axis=1)
        pending[1, :n] = pending[0, n:] = 0.5 * (split[0] + split[1])
        pending[2] += 1.0
        edges = np.concatenate((edges[:, order[n:]], pending), axis=1)
        rows = rows[:, order[n:]]
