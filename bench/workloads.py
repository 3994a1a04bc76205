"""Seeded input generators, operations and output checks, one class per workload.

Every generator takes only the seed and yields an endless stream of
distinct inputs.  A run takes a fixed number of them, :func:`op_count`, set
by the run length alone, so that the same seed and length always give the
same operations and the same failures, however fast the machine is.  The
property that sets an operation's cost, the wing length R/a, follows a
seeded low-discrepancy sequence, so that any run's inputs cover its range
evenly and runs on different seeds see the same cost mix.  trapcav receives
only the generated inputs.

An operation fails if it raises, reports ``converged=False``, exits
non-zero, or misses the accuracy gate: |f - f_ref| <= 100 tol |f_z,ref| on
both components, against :mod:`reference`.  A failure that shows one of the
defects below, which the program has at the commit that introduced this
benchmark, is counted like any other but does not make the run incorrect;
every other failure does:

* ``false-convergence``: total_forces reports converged=True but misses the
  gate by at most FALSE_CONVERGENCE_MISS |f_z,ref|.  Common for long wings
  at small phi (R/a >= 1e3, phi < 1e-3: one force-grid op in fifteen), where
  one or two panels per integral miss the open-edge deficits, 2/5 of
  (16/15) R/a, so below 3.8e-4 of f_z (the largest seen over seeds 101-110
  was 2.8e-4).  Rare elsewhere: force-grid seed 202 meets R/a = 20.85,
  phi = 0.2258, where f_z is off by 1.2e-5 relative with an error estimate
  of 4e-11.
* ``panel-cap`` (adaptive-hard only, whose inputs all lie in this region:
  phi in [1e-6, 1e-5] on long wings, or tol 1e-13): the adaptive loop hits
  its 10 000-panel cap and returns converged=False.
* ``profile-last-sample`` (cli ``profile`` when R * 63 / 63 rounds above R):
  the last sample raises OutOfRange; only an exit 2 with that error
  reported for r = R * 63 / 63 is excused.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace

import reference

DEG = math.pi / 180.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GATE = 100.0
FALSE_CONVERGENCE_MISS = 1e-3


@dataclass(frozen=True)
class Cavity:
    a: float
    R: float
    L: float
    phi: float
    units: str
    tol: float = 1e-9


@dataclass
class Verdict:
    """Check result of one operation."""

    ok: bool
    reason: str = ""
    accuracy_failures: int = 0
    # the documented defect this failure matches, if any
    defect: str = ""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _even(rng: random.Random):
    """Endless golden-ratio sequence in [0, 1) from a seeded start; every
    prefix is spread evenly over [0, 1) and no value repeats."""
    u = rng.random()
    while True:
        yield u
        u = (u + _GOLDEN) % 1.0


def _si_or_reduced(rng: random.Random, rho: float, phi: float, si: bool, **kw) -> Cavity:
    if si:
        a = _log_uniform(rng, 1e-7, 1e-6)
        return Cavity(a=a, R=a * rho, L=_log_uniform(rng, 1e-6, 1e-3), phi=phi, units="si", **kw)
    return Cavity(a=1.0, R=rho, L=1.0, phi=phi, units="reduced", **kw)


def _spec(cav: Cavity):
    from trapcav import CavitySpec, Units

    return CavitySpec(a=cav.a, R=cav.R, L=cav.L, phi=cav.phi, units=Units(cav.units))


def check_forces(cav: Cavity, converged: bool, f_x: float, f_z: float, wing_count: int = 1) -> Verdict:
    """Convergence and the accuracy gate for one force result on ``cav``."""
    if not converged:
        return Verdict(False, "converged=False")
    ref_x, ref_z = reference.forces(cav.a, cav.R, cav.L, cav.phi, cav.units)
    scale = abs(ref_z) * wing_count
    if wing_count == 2:
        ref_x, ref_z = 2.0 * ref_x, 0.0
    # largest error of the two components, relative to |f_z,ref| of one wing
    miss = max(abs(f_x - ref_x), abs(f_z - ref_z)) / scale
    if miss <= GATE * cav.tol:
        return Verdict(True)
    if miss <= FALSE_CONVERGENCE_MISS:
        return Verdict(False, "accuracy gate", 1, "false-convergence")
    return Verdict(False, f"accuracy gate, error {miss:.2g} of |f_z,ref|", 1)


def combine(verdicts: list[Verdict]) -> Verdict:
    """One verdict for an operation made of several checks; it shows a
    documented defect only when every failed check shows the same one."""
    failed = [v for v in verdicts if not v.ok]
    if not failed:
        return Verdict(True)
    defects = {v.defect for v in failed}
    reason = failed[0].reason if len(failed) == 1 else f"{len(failed)} checks fail, first: {failed[0].reason}"
    return Verdict(False, reason, sum(v.accuracy_failures for v in failed), defects.pop() if len(defects) == 1 else "")


def check_optimum(base: Cavity, lo: float, hi: float, phi_star: float, f_x_star: float) -> str:
    """Empty string when phi_star is within 5e-5 rad of a maximum of |f_x| and
    f_x_star meets the accuracy gate; otherwise the problem found."""
    if not (lo < phi_star < hi):
        return f"phi_star {phi_star!r} outside ({lo!r}, {hi!r})"

    def ref(phi):
        return reference.forces(base.a, base.R, base.L, phi, base.units)

    step = 1e-4
    ref_x, ref_z = ref(phi_star)
    for side in (phi_star - step, phi_star + step):
        if abs(ref(side)[0]) > abs(ref_x):
            return f"|f_x| grows from phi_star {phi_star!r} towards {side!r}"
    if abs(f_x_star - ref_x) > GATE * base.tol * abs(ref_z):
        return f"f_x_star {f_x_star!r} misses the reference {ref_x!r}"
    return ""


class ForceGrid:
    """One total_forces call per op, over eight decades of R/a and all phi regimes."""

    # operations per second of run length (op_count), and the operations
    # whose inputs cycle together (phi kind k % 3, units k % 2)
    RATE = 240.0
    BLOCK = 6

    def inputs(self, seed: int):
        rng = random.Random(f"force-grid:{seed}")
        for k, u in enumerate(_even(rng)):
            rho = 10.0 ** (-3.0 + 8.0 * u)
            kind = k % 3
            if kind == 0:
                phi = 0.0
            elif kind == 1:
                # below 1e-4 long wings reach the panel cap: adaptive-hard
                phi = rng.uniform(1e-4, 0.78)
            else:
                phi = _log_uniform(rng, 1e-4, 1e-1)
            yield _si_or_reduced(rng, rho, phi, k % 2 == 1)

    def warmup(self):
        from trapcav import CavitySpec, Units, total_forces

        for rho, phi in ((0.5, 0.2), (20.0, 0.01), (300.0, 0.0)):
            total_forces(CavitySpec(1.0, rho, 1.0, phi, Units.REDUCED), 1e-9)

    def run(self, cav: Cavity, tracer=None):
        import trapcav.forces

        return trapcav.forces.total_forces(_spec(cav), cav.tol)

    def check(self, cav: Cavity, result) -> Verdict:
        return check_forces(cav, result.converged, result.f_x, result.f_z)


class AdaptiveHard(ForceGrid):
    """total_forces on cavities whose adaptive loop runs into the 10 000-panel cap."""

    RATE = 0.05
    BLOCK = 1

    def inputs(self, seed: int):
        rng = random.Random(f"adaptive-hard:{seed}")
        while True:
            # long wings at tiny phi, then mid wings at a tolerance near rounding
            phi = _log_uniform(rng, 1e-6, 1e-5)
            yield Cavity(1.0, _log_uniform(rng, 1e5, 1e6), 1.0, phi, "reduced", 1e-9)
            phi = _log_uniform(rng, 1e-6, 1e-5)
            yield Cavity(1.0, _log_uniform(rng, 3e3, 1e4), 1.0, phi, "reduced", 1e-13)

    def warmup(self):
        from trapcav import CavitySpec, Units, total_forces

        total_forces(CavitySpec(1.0, 4.0, 1.0, 0.1, Units.REDUCED), 1e-9)

    def check(self, cav: Cavity, result) -> Verdict:
        if not result.converged:
            return Verdict(False, "converged=False", defect="panel-cap")
        return super().check(cav, result)


class Analysis:
    """A 32-row phi sweep (two workers) and an optimize_phi per cavity."""

    # a third more operations than 20 s of work: with 75 per run, the
    # spread of latency_ms_p50 over ten seeds was 0.089, with 100 it was 0.050
    RATE = 5.0
    BLOCK = 1
    lo, hi = 0.5 * DEG, 20.0 * DEG

    def inputs(self, seed: int):
        rng = random.Random(f"analysis:{seed}")
        for u in _even(rng):
            yield Cavity(1.0, 10.0 ** (2.0 * u), 1.0, self.lo, "reduced")

    def grid(self) -> list[float]:
        return [self.lo + (self.hi - self.lo) * k / 31 for k in range(32)]

    def warmup(self):
        from trapcav import CavitySpec, SweepAxis, Units, optimize_phi, sweep

        base = CavitySpec(1.0, 1.0, 1.0, self.lo, Units.REDUCED)
        sweep(base, SweepAxis.PHI, self.grid()[:4], workers=2)
        optimize_phi(base, self.lo, self.hi)

    def run(self, cav: Cavity, tracer=None):
        import trapcav.analysis as analysis

        base = _spec(cav)
        table = analysis.sweep(base, analysis.SweepAxis.PHI, self.grid(), rel_tol=cav.tol, workers=2)
        return table, analysis.optimize_phi(base, self.lo, self.hi, rel_tol=cav.tol)

    def check(self, cav: Cavity, outcome) -> Verdict:
        table, opt = outcome
        verdicts = [check_forces(replace(cav, phi=phi), row.converged, row.f_x, row.f_z) for phi, row in table.points]
        problem = check_optimum(cav, self.lo, self.hi, opt.phi_star, opt.f_x_star)
        return combine(verdicts + [Verdict(not problem, problem)])


@dataclass(frozen=True)
class CliOp:
    command: str
    cav: Cavity
    args: tuple[str, ...]
    wing_count: int = 1


class Cli:
    """One trapcav process per op, spawned and awaited one at a time."""

    # per block of ten processes
    MIX = ("force",) * 6 + ("optimize", "verify", "sweep", "profile")
    RATE = 3.75
    BLOCK = len(MIX)

    def __init__(self, root: str, out_dir: str) -> None:
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_rss_kb = 0

    def inputs(self, seed: int):
        rng = random.Random(f"cli:{seed}")
        mix = list(self.MIX)
        spread = {command: _even(rng) for command in mix}
        while True:
            rng.shuffle(mix)
            for command in mix:
                yield self._op(rng, command, next(spread[command]))

    def _op(self, rng: random.Random, command: str, u: float) -> CliOp:
        if command == "force":
            cav = _si_or_reduced(rng, 10.0 ** (-1.0 + 4.0 * u), rng.uniform(0.5, 40.0) * DEG, rng.random() < 0.5)
            wings = 2 if rng.random() < 0.2 else 1
            return CliOp(command, cav, ("--wing-count", str(wings)), wings)
        if command == "profile":
            cav = _si_or_reduced(rng, 10.0 ** (-1.0 + 3.0 * u), rng.uniform(0.5, 40.0) * DEG, rng.random() < 0.5)
            return CliOp(command, cav, ("--samples", "64", "--format", "json"))
        cav = Cavity(1.0, 30.0**u, 1.0, rng.uniform(1.0, 30.0) * DEG, "reduced")
        if command == "optimize":
            return CliOp(command, replace(cav, phi=0.0), ("--phi-lo-deg", "0.5", "--phi-hi-deg", "20"))
        if command == "sweep":
            values = ",".join(repr(0.5 + 19.5 * k / 7) for k in range(8))
            return CliOp(command, replace(cav, phi=0.0), ("--axis", "phi", "--values", values, "--format", "json"))
        return CliOp(command, cav, ())

    def argv(self, op: CliOp) -> list[str]:
        cav = op.cav
        return [
            op.command,
            "--a", repr(cav.a),
            "--R", repr(cav.R),
            "--L", repr(cav.L),
            "--phi-deg", repr(cav.phi / DEG),
            "--units", cav.units,
            *op.args,
        ]

    def spawn(self, args: list[str]) -> tuple[int, bytes, bytes, int]:
        """Run one process to completion: (exit code, stdout, stderr, max RSS in KiB)."""
        proc = subprocess.Popen(args, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss

    def warmup(self):
        self.spawn([sys.executable, "-m", "trapcav.cli", "force", "--a", "1", "--R", "4", "--phi-deg", "5", "--units", "reduced"])

    def run(self, op: CliOp, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "trapcav.cli", *self.argv(op)]
        else:
            spans = os.path.join(self.out_dir, "cli-spans.npz")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"), spans, *self.argv(op)]
        code, out, err, rss = self.spawn(cmd)
        self.max_rss_kb = max(self.max_rss_kb, rss)
        if tracer is not None and os.path.exists(spans):
            tracer.absorb(spans, tracer.current())
            os.unlink(spans)
        return code, out, err

    def check(self, op: CliOp, outcome) -> Verdict:
        code, out, err = outcome
        if code != 0:
            reason = f"{op.command} exited {code}: {err.decode(errors='replace')[:200]}"
            return Verdict(False, reason, defect=self._out_of_range_sample(op, code, err))
        try:
            payload = json.loads(out)
        except ValueError:
            return Verdict(False, f"{op.command} wrote no JSON")
        cav = op.cav
        if op.command == "force":
            return check_forces(cav, payload["converged"], payload["f_x"], payload["f_z"], op.wing_count)
        if op.command == "optimize":
            problem = check_optimum(cav, 0.5 * DEG, 20.0 * DEG, payload["phi_star"], payload["f_x_star"])
            return Verdict(not problem, problem)
        if op.command == "sweep":
            points = payload["points"]
            return combine([check_forces(replace(cav, phi=p["param"]), p["converged"], p["f_x"], p["f_z"]) for p in points])
        if op.command == "profile":
            return self._check_profile(cav, payload)
        return self._check_verify(payload)

    @staticmethod
    def _out_of_range_sample(op: CliOp, code: int, err: bytes) -> str:
        """``profile-last-sample`` when a profile exited 2 because its last
        sample r = R * 63 / 63 fell outside [0, R]."""
        if op.command != "profile" or code != 2:
            return ""
        try:
            error = json.loads(err)
        except ValueError:
            return ""
        last = op.cav.R * 63 / 63
        if isinstance(error, dict) and (error.get("error"), error.get("name"), error.get("value")) == ("OutOfRange", "r", last):
            return "profile-last-sample"
        return ""

    def _check_profile(self, cav: Cavity, payload) -> Verdict:
        import numpy as np

        samples = payload["samples"]
        r = np.array([s["r"] for s in samples])
        ref_x, ref_z = reference.pressures(cav.a, cav.R, cav.phi, cav.units, r)
        got_x = np.array([s["p_x"] for s in samples])
        got_z = np.array([s["p_z"] for s in samples])
        gate = GATE * cav.tol * np.abs(ref_z)
        bad = int(np.sum((np.abs(got_x - ref_x) > gate) | (np.abs(got_z - ref_z) > gate)))
        return Verdict(bad == 0, f"{bad} profile samples miss the reference" if bad else "")

    def _check_verify(self, payload) -> Verdict:
        import jsonschema

        with open(os.path.join(self.root, "src", "trapcav", "schemas", "report.schema.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as err:
            return Verdict(False, f"verify report breaks its schema: {err.message}")
        if not payload["all_passed"]:
            return Verdict(False, "verify reported a failed check")
        return Verdict(True)


def op_count(wl, seconds: float, share: float = 1.0) -> int:
    """Operations in a run of ``seconds`` (a ``share`` of them for traced
    runs): ``RATE`` per second, a whole number of input blocks, at least
    one.  ``RATE`` is about what the seed commit completes per second on the
    machine named in speed.py, so that a run takes about ``seconds`` there."""
    return wl.BLOCK * max(1, round(seconds * share * wl.RATE / wl.BLOCK))


def make(name: str, root: str, out_dir: str):
    if name == "cli":
        return Cli(root, out_dir)
    return {"force-grid": ForceGrid, "adaptive-hard": AdaptiveHard, "analysis": Analysis}[name]()

