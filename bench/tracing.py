"""Spans around trapcav's layer boundaries, recorded from outside the package.

:meth:`Tracer.install` replaces each function in :data:`WRAP_POINTS` with a
timing wrapper, under the name its caller looks up (``from .x import f``
binds ``f`` in the caller's module, so the wrapper goes there).  Each span
records its name, start, end, parent span and thread.  Spans stay in memory
in flat arrays and are written out once, by :meth:`Tracer.save`.

A layer's self time is the summed duration of its spans minus, per span, the
union of its child spans' intervals; children that ran on other threads
(the sweep thread pool) may overlap, so their union is merged explicitly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array

import numpy as np

# (module, attribute) -> span name "<layer>.<function>"
WRAP_POINTS = {
    ("trapcav.kernels", "validate"): "geometry.validate",
    ("trapcav.kernels", "limit_angles"): "geometry.limit_angles",
    ("trapcav.kernels", "s_factor"): "geometry.s_factor",
    ("trapcav.forces", "validate"): "geometry.validate",
    ("trapcav.analysis", "validate"): "geometry.validate",
    ("trapcav.cli", "validate"): "geometry.validate",
    # oracle.verify_suite imports these inside its body, from the modules
    ("trapcav.geometry", "validate"): "geometry.validate",
    ("trapcav.geometry", "limit_angles"): "geometry.limit_angles",
    ("trapcav.geometry", "ray_length"): "geometry.ray_length",
    ("trapcav.quadrature", "integrate_adaptive"): "quadrature.integrate_adaptive",
    ("trapcav.forces", "total_forces"): "forces.total_forces",
    ("trapcav.forces", "specific_pressures"): "kernels.specific_pressures",
    ("trapcav.forces", "integrate_adaptive"): "quadrature.integrate_adaptive",
    ("trapcav.quadrature", "pairwise_sum"): "quadrature.pairwise_sum",
    ("trapcav.analysis", "total_forces"): "forces.total_forces",
    ("trapcav.analysis", "sweep"): "analysis.sweep",
    ("trapcav.analysis", "optimize_phi"): "analysis.optimize_phi",
    ("trapcav.oracle", "riemann_forces"): "oracle.riemann_forces",
    ("trapcav.oracle", "limit_angles_vector"): "oracle.limit_angles_vector",
    ("trapcav.oracle", "ray_length_intersection"): "oracle.ray_length_intersection",
    ("trapcav.cli", "total_forces"): "forces.total_forces",
    ("trapcav.cli", "pressure_profile"): "forces.pressure_profile",
    ("trapcav.cli", "sweep"): "analysis.sweep",
    ("trapcav.cli", "optimize_phi"): "analysis.optimize_phi",
    ("trapcav.cli", "verify_suite"): "oracle.verify_suite",
}

# float64 arrays of n_r x n_theta cells that riemann_forces materialises per
# row chunk, counted from its expressions: theta (2), _ray_lengths_raw (8),
# b**4 and the pressure (2), and per component the projection, its product
# and the pairwise tree (4 + 4)
RIEMANN_ARRAYS_PER_CELL = 20

COUNTERS = (
    "quadrature.evals",
    "quadrature.not_converged",
    "forces.not_converged",
    "forces.kernel_calls",
    "forces.distinct_points",
    "oracle.riemann_cells",
)


class Tracer:
    """Span recorder; install() wraps, uninstall() restores, save() writes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.thread = array("Q")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: dict[tuple[str, str], object] = {}

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a pool thread's first span belongs to the span that started the pool
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.thread.append(threading.get_ident())
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def current(self) -> int:
        """Index of the innermost open span on this thread, -1 if none."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        nid = self._name_id(name)
        local = self._local

        def plain(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        def integrate(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                evals = getattr(err, "evaluations", None)
                if evals is not None:
                    self._count("quadrature.evals", evals)
                    self._count("quadrature.not_converged", 1)
                raise
            finally:
                self._close(idx)
            self._count("quadrature.evals", result.evaluations)
            return result

        def forces(*args, **kwargs):
            outer = getattr(local, "points", None)
            local.points = []
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                points, local.points = local.points, outer
                self._count("forces.kernel_calls", len(points))
                self._count("forces.distinct_points", len(set(points)))
            if not getattr(result, "converged", True):
                self._count("forces.not_converged", 1)
            return result

        def kernel(spec, r, *args, **kwargs):
            points = getattr(local, "points", None)
            if points is not None:
                points.append(r)
            idx = self._open(nid)
            try:
                return fn(spec, r, *args, **kwargs)
            finally:
                self._close(idx)

        def riemann(spec, n_r, n_theta, *args, **kwargs):
            self._count("oracle.riemann_cells", n_r * n_theta)
            idx = self._open(nid)
            try:
                return fn(spec, n_r, n_theta, *args, **kwargs)
            finally:
                self._close(idx)

        special = {
            "quadrature.integrate_adaptive": integrate,
            "forces.total_forces": forces,
            "forces.pressure_profile": forces,
            "kernels.specific_pressures": kernel,
            "oracle.riemann_forces": riemann,
        }
        return special.get(name, plain)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for (module_name, attr), name in WRAP_POINTS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved[(module_name, attr)] = fn
            # one wrapper per function object, so every caller shares it
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrapper(name, fn)
            setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for (module_name, attr), fn in self._saved.items():
            setattr(importlib.import_module(module_name), attr, fn)
        self._saved.clear()

    # -- spans from a child process ----------------------------------------

    def save(self, path: str) -> None:
        """Write every span and counter to ``path`` (numpy .npz)."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            thread=np.frombuffer(self.thread, dtype=np.uint64),
        )

    def absorb(self, path: str, parent: int) -> None:
        """Append the spans saved at ``path``; their roots hang under ``parent``."""
        with np.load(path) as data:
            names = json.loads(str(data["names"]))
            remap = np.array([self._name_id(n) for n in names], dtype=np.int64)
            offset = len(self.start)
            parents = data["parent"]
            parents = np.where(parents < 0, parent, parents + offset)
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(parents.tolist())
            self.name.extend(remap[data["name"]].tolist() if len(names) else [])
            self.thread.extend(data["thread"].tolist())
            for key, value in json.loads(str(data["counts"])).items():
                self.counts[key] += value

    # -- aggregation --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans and summed self time in seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        thread = np.frombuffer(self.thread, dtype=np.uint64)
        name = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        cross = has_parent & (thread != thread[np.where(has_parent, parent, 0)])
        if cross.any():
            order = np.argsort(parent, kind="stable")
            sorted_parent = parent[order]
            for p in np.unique(parent[cross]):
                lo, hi = np.searchsorted(sorted_parent, [p, p + 1])
                kids = order[lo:hi]
                covered[p] = _union_length(start[kids], start[kids] + dur[kids])
        self_time = dur - covered
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = {"calls": int(mask.sum()), "self_s": float(self_time[mask].sum())}
        return out

    def child_calls(self, child_layer: str, parent_layer: str) -> int:
        """Number of ``child_layer`` spans whose parent is a ``parent_layer`` span."""
        if len(self.start) == 0:
            return 0
        layer_of = np.array([n.split(".")[0] for n in self.names])
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = has_parent & (layer_of[name] == child_layer)
        return int(np.sum(layer_of[name[parent[child]]] == parent_layer))


def _union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    total = 0.0
    reach = -np.inf
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total
