"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
(shown directly with ``pytest -s``, captured otherwise; the per-test
PASSED/FAILED verdict of ``pytest -v`` mirrors the same ten lines).
"""

import math
import random
from contextlib import contextmanager

import numpy as np

from trapcav import (
    AngleWindow,
    CavitySpec,
    SweepAxis,
    Units,
    fan_integrals,
    limit_angles,
    optimize_phi,
    specific_pressures,
    total_forces,
)
from trapcav.cli import main
from trapcav.oracle import limit_angles_vector, riemann_forces
from trapcav.quadrature import integrate_adaptive

REDUCED_10 = CavitySpec(a=1.0, R=10.0, L=1.0, phi=0.0, units=Units.REDUCED)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label}")


def test_criterion_01_enhanced_plate_pressure():
    with criterion(1, "deep-cavity compression reaches -16/15 within 0.1%"):
        wide = CavitySpec(a=1.0, R=1e4, L=1.0, phi=0.0, units=Units.REDUCED)
        p_z = specific_pressures(wide, wide.R / 2).p_z
        assert abs(p_z - (-16.0 / 15.0)) <= 1e-3 * (16.0 / 15.0)


def test_criterion_02_edge_pressure_halves():
    with criterion(2, "wing-edge compression is half the central value within 0.5%"):
        wide = CavitySpec(a=1.0, R=100.0, L=1.0, phi=0.0, units=Units.REDUCED)
        edge = specific_pressures(wide, 0.0).p_z
        center = specific_pressures(wide, wide.R / 2).p_z
        assert abs(edge / center - 0.5) <= 5e-3 * 0.5


def test_criterion_03_expulsion_integral_identities():
    with criterion(3, "forward-fan expulsion 1/5, full-fan zero, ratio 3/16"):
        half = AngleWindow(0.0, math.pi / 2)
        full = AngleWindow(0.0, math.pi)
        forward = fan_integrals(half, 0.0)[0]
        assert abs(abs(forward) - 0.2) <= 1e-10
        assert abs(fan_integrals(full, 0.0)[0]) <= 1e-12
        ratio = abs(forward) / fan_integrals(full, 0.0)[1]
        assert abs(ratio - 3.0 / 16.0) <= 1e-10


def test_criterion_04_parallel_plate_forces_compensate():
    with criterion(4, "phi=0 expulsion vanishes to 1e-10 of compression on a 3x3 grid"):
        for a in (2e-7, 4e-7, 1e-6):
            for R in (2e-6, 8e-6, 3.2e-5):
                fr = total_forces(CavitySpec(a=a, R=R, L=1.0, phi=0.0))
                assert abs(fr.f_x) <= 1e-10 * abs(fr.f_z)


def test_criterion_05_tilted_wings_push_toward_apex():
    with criterion(5, "1 degree opening yields strictly negative expulsion force"):
        for R in (1e-6, 2e-6, 4e-6, 8e-6):
            spec = CavitySpec(a=4e-7, R=R, L=1.0, phi=math.radians(1.0))
            assert total_forces(spec).f_x < 0.0


def test_criterion_06_optimal_angle_shrinks_with_wing_length():
    with criterion(6, "phi* is interior and strictly decreasing over R = 2, 4, 8"):
        stars = []
        for R in (2.0, 4.0, 8.0):
            base = REDUCED_10._replace(R=R)
            report = optimize_phi(base, 0.01, math.pi / 4 - 0.02)
            assert 0.01 < report.phi_star < math.pi / 4 - 0.02
            stars.append(report.phi_star)
        assert stars[0] > stars[1] > stars[2]


def test_criterion_07_closed_forms_match_adaptive_quadrature():
    with criterion(7, "fan integrals match adaptive quadrature to 1e-10 over 1000 windows"):
        rng = random.Random(6283)
        for _ in range(1000):
            phi = rng.uniform(0.0, math.pi / 4 - 1e-3)
            t1 = rng.uniform(2 * phi + 1e-3, math.pi - 1e-3)
            t2 = rng.uniform(t1 + 1e-4, math.pi)
            window = AngleWindow(t1, t2)
            for closed, trig in (
                (fan_integrals(window, phi)[1], lambda t: np.sin(t - phi)),
                (fan_integrals(window, phi)[0], lambda t: np.cos(t - phi)),
            ):
                raw = lambda t: np.sin(t - 2 * phi) ** 4 * trig(t)
                quad = integrate_adaptive(
                    raw, t1, t2, rel_tol=1e-12, abs_tol=1e-14 * window.width
                )
                # near-cancelling windows are judged on the window scale
                scale = max(abs(closed), abs(quad.value), 1e-3 * window.width)
                assert abs(closed - quad.value) / scale <= 1e-10


def test_criterion_08_independent_oracle_agreement():
    with criterion(8, "2048^2 midpoint oracle and raw angle paths agree"):
        for deg in (0.0, 1.0, 5.0):
            spec = REDUCED_10._replace(phi=math.radians(deg))
            ref = total_forces(spec)
            rie = riemann_forces(spec, 2048, 2048)
            assert abs(ref.f_z - rie.f_z) / abs(rie.f_z) <= 1e-4
            x_scale = abs(rie.f_x) if deg > 0.0 else abs(rie.f_z)
            assert abs(ref.f_x - rie.f_x) / x_scale <= 1e-4
        rng = random.Random(57721)
        for _ in range(10_000):
            a = rng.uniform(0.05, 5.0)
            spec = CavitySpec(
                a=a,
                R=a * rng.uniform(1.5, 50.0),
                L=1.0,
                phi=rng.uniform(0.0, math.pi / 4 - 0.01),
            )
            r = rng.uniform(0.0, spec.R)
            closed = limit_angles(spec, r)
            vector = limit_angles_vector(spec, r)
            assert abs(closed.theta1 - vector.theta1) <= 1e-12
            assert abs(closed.theta2 - vector.theta2) <= 1e-12


def test_criterion_09_dimensional_scaling():
    with criterion(9, "pressures scale as lambda^-4 and forces as lambda^-3 within 1e-9"):
        # the twin scales every length but L by lam; pressures are compared
        # at the matched point r = R/3
        spec = CavitySpec(a=4e-7, R=4e-6, L=1.0, phi=math.radians(1.0))
        f_base = total_forces(spec)
        p_base = specific_pressures(spec, spec.R / 3.0)
        for lam in (2.0, 10.0):
            twin = spec._replace(a=lam * spec.a, R=lam * spec.R)
            f_twin = total_forces(twin)
            p_twin = specific_pressures(twin, twin.R / 3.0)
            for twin_value, base_value, law in (
                (f_twin.f_x, f_base.f_x, lam**-3),
                (f_twin.f_z, f_base.f_z, lam**-3),
                (p_twin.p_x, p_base.p_x, lam**-4),
                (p_twin.p_z, p_base.p_z, lam**-4),
            ):
                assert abs(twin_value / base_value / law - 1.0) <= 1e-9


def test_criterion_10_outputs_are_reproducible(tmp_path):
    with criterion(10, "CSV/JSON outputs are byte-identical across runs and workers"):
        sweep_argv = [
            "sweep", "--a", "1", "--R", "10", "--units", "reduced",
            "--axis", "phi", "--values", "0.5,1,2,4,8", "--format", "csv",
        ]
        paths = [tmp_path / name for name in ("s1.csv", "s2.csv", "s8.csv")]
        assert main([*sweep_argv, "--workers", "1", "--out", str(paths[0])]) == 0
        assert main([*sweep_argv, "--workers", "1", "--out", str(paths[1])]) == 0
        assert main([*sweep_argv, "--workers", "8", "--out", str(paths[2])]) == 0
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()
        assert first == paths[2].read_bytes()

        force_argv = [
            "force", "--a", "1", "--R", "10", "--units", "reduced", "--phi-deg", "3",
        ]
        j1, j2 = tmp_path / "f1.json", tmp_path / "f2.json"
        assert main([*force_argv, "--out", str(j1)]) == 0
        assert main([*force_argv, "--out", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()
