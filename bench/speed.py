"""Machine-speed calibration, so that timings from different runs compare.

On a shared 2-vCPU host the speed of fixed CPU work drifts by +-25 % over
minutes (a fixed pure-Python loop measured 87 to 157 iterations/s within
four minutes on the 2.1 GHz Intel Xeon this benchmark was defined on), far
more than run length or medians can average away.  Code of the same kind
drifts together, so the benchmark times a fixed calibration kernel of that
kind in a short slice between operations whenever a set time has
passed since the last slice, and scales each operation's duration by the
kernel's reference time over its mean time in the slices just before and
just after the operation: a time reads as it would on a machine where the
kernel takes its reference time.  The host switches between a fast and a
slow state within seconds, so the slices of one run are bimodal (about 115
and 220 us per :func:`candle` call); a run-wide median factor flips with the
share of time spent in each state, while per-operation factors follow it
(three force-grid runs: 128 to 176 operations/s with the median factor, 143
to 150 with the neighbouring slices).

There are two kernels, one per kind of work timed:

* :func:`candle`, for operations that compute inside the benchmark process.
  It imitates the seed trapcav hot path (a range check, the limit angle
  trigonometry and two frozen dataclasses per point, 15-point panels,
  pairwise numpy reductions) and is frozen here, so changes to trapcav
  never move it.  The correction is imperfect: in the host's fastest
  periods a kernel of bare trigonometry ran up to 1.9 times faster while
  trapcav ran about 1.4 times faster, so scaled times of such runs read
  high.
* :func:`spawn`, for fresh processes (cli operations and the set-up
  probes): one interpreter that imports numpy and exits, work that no
  change to the repository can move and that makes up most of trapcav's
  own start-up.  Process start-up does not follow the in-process kernel:
  in one trial of six cli runs ops_per_s spread 0.10 unscaled and 0.11
  scaled by candle; in another, 0.08 unscaled and 0.02 scaled by spawn.  A
  bare ``python -c pass`` tracked cli in both (0.01) but not in a third,
  where cli and set-up slowed by a quarter while bare interpreter start did
  not move.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# reference seconds per candle() and per spawn() call, about their times on
# the Xeon named above, and the least time between two slices of each
CANDLE_REF_S = 3.0e-4
CANDLE_EVERY_S = 0.2
SPAWN_REF_S = 0.15
SPAWN_EVERY_S = 0.5

# positive 15-point Kronrod nodes, as in an adaptive Gauss-Kronrod panel
_NODES = (0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
          0.586087235467691, 0.405845151377397, 0.207784955007898)


@dataclass(frozen=True)
class _Window:
    lo: float
    hi: float


@dataclass(frozen=True)
class _Sample:
    r: float
    x: float
    z: float


def _window(a: float, r: float, wing: float, phi: float) -> _Window:
    if not (math.isfinite(a) and a > 0.0 and 0.0 <= r <= wing):
        raise ValueError("calibration point out of range")
    s = math.sin(phi)
    c1 = -(r + a * s - wing * math.cos(2.0 * phi)) / math.hypot(a + (wing + r) * s, (r - wing) * math.cos(phi))
    c2 = -(r + a * s) / math.sqrt(a * a + r * r + 2.0 * a * r * s)
    return _Window(math.acos(max(-1.0, min(1.0, c1))), math.acos(max(-1.0, min(1.0, c2))))


def _kernel(r: float) -> _Sample:
    w = _window(1.0, r, 4.0, 0.1)
    c1, c2 = math.cos(w.lo - 0.2), math.cos(w.hi - 0.2)
    f5 = (-c2 + (2.0 / 3.0) * c2**3 - 0.2 * c2**5) - (-c1 + (2.0 / 3.0) * c1**3 - 0.2 * c1**5)
    g5 = (math.sin(w.hi - 0.2) ** 5 - math.sin(w.lo - 0.2) ** 5) / 5.0
    return _Sample(r, g5, f5)


def _pairwise(values) -> float:
    a = np.asarray(values, dtype=float)
    while a.shape[-1] > 1:
        n = a.shape[-1]
        m = 2 * (n // 2)
        paired = a[..., 0:m:2] + a[..., 1:m:2]
        if n % 2:
            paired = np.concatenate([paired, a[..., -1:]], axis=-1)
        a = paired
    return float(a[0])


def candle() -> float:
    """Fixed calibration work: two 15-point panels of a fan-integral kernel
    and the pairwise panel bookkeeping of an adaptive loop."""
    panels = []
    for lo, hi in ((0.0, 2.0), (2.0, 4.0)):
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = [_kernel(center).z]
        for x in _NODES:
            values.append(_kernel(center - half * x).z)
            values.append(_kernel(center + half * x).z)
        panels.append(_pairwise(values) * half)
        _pairwise(panels)
    return _pairwise(panels)


def spawn() -> None:
    """Fixed calibration work for process start-up: a fresh interpreter
    that imports numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Speed:
    """Slices of one calibration kernel taken between the operations of a
    timed loop, and the scale they imply."""

    def __init__(self, kernel, ref_s: float, calls: int, every_s: float) -> None:
        self.kernel = kernel
        self.ref_s = ref_s
        self.calls = calls
        self.every_s = every_s
        self.times: list[float] = []
        self.per_call: list[float] = []

    def sample(self) -> None:
        """Run one slice; the median call time resists interruptions."""
        calls = []
        for _ in range(self.calls):
            t0 = time.perf_counter()
            self.kernel()
            calls.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.per_call.append(statistics.median(calls))

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.every_s

    def factor(self, start: float) -> float:
        """Scale for work that started at ``start``: the slices just before
        and just after it (slices run only between timed work)."""
        i = bisect.bisect_right(self.times, start)
        return self.ref_s / statistics.fmean(self.per_call[max(i - 1, 0):i + 1])

    def median_factor(self) -> float:
        return self.ref_s / statistics.median(self.per_call)


def in_process() -> Speed:
    return Speed(candle, CANDLE_REF_S, 10, CANDLE_EVERY_S)


def processes() -> Speed:
    return Speed(spawn, SPAWN_REF_S, 1, SPAWN_EVERY_S)
