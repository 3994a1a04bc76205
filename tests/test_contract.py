"""Contract sweep of the public API over the supported domain.

Every supported cavity gets a right answer or a typed refusal: a wing of
any length, down to windows narrower than an ulp of their limit angles,
is verified, and ``verify_suite`` refuses only where the forces it checks
cannot be formed.
"""

import math
import random
import time

import pytest

from trapcav import (
    AngleWindow,
    CavitySpec,
    NonFiniteSample,
    Units,
    limit_angles,
    limit_angles_vector,
    total_forces,
    verify_suite,
)

# from wings whose windows round to one float (R/a <= 1e-16) to 1e300 gaps
CONTRACT_RATIOS = [1e-20, 1e-18, 2e-17, 5e-17, 1e-16, 1e-15, 1e-9, 1e-3, 0.3, 4.0, 1e6, 1e20, 1e300]
CONTRACT_PHIS = [0.0, 1e-8, 0.1, 0.3, 0.7, math.nextafter(math.pi / 4, 0.0)]


@pytest.mark.parametrize("units", [Units.REDUCED, Units.SI])
@pytest.mark.parametrize("ratio", CONTRACT_RATIOS)
def test_verify_suite_passes_on_wings_of_any_length(ratio, units):
    a = 1.0 if units is Units.REDUCED else 1e-7
    for phi in CONTRACT_PHIS:
        spec = CavitySpec(a=a, R=a * ratio, L=1.0, phi=phi, units=units)
        start = time.perf_counter()
        reports = verify_suite(spec)
        elapsed = time.perf_counter() - start
        assert len(reports) == 6
        for r in reports:
            assert r.passed, (spec, r)
        assert elapsed < 0.1, (spec, elapsed)


def test_verify_suite_raises_what_total_forces_raises():
    # on a wing 1e-160 gaps long f_z is subnormal, so no force is checked
    spec = CavitySpec(a=1.0, R=1e-160, L=1.0, phi=0.3, units=Units.REDUCED)
    with pytest.raises(NonFiniteSample) as forces:
        total_forces(spec, 1e-9)
    with pytest.raises(NonFiniteSample) as verify:
        verify_suite(spec)
    assert str(verify.value) == str(forces.value)


def test_limit_angle_pair_answers_alike_on_tiny_wings():
    # a seeded draw over R/a 1e-25..1e-12, both unit systems, phi at 0,
    # 1e-8, uniform, log-uniform and the float below pi/4, and r at 0, R
    # and uniform: windows from a few ulps of theta1 down to none at all
    rng = random.Random(201250)
    for _ in range(5000):
        units = rng.choice([Units.REDUCED, Units.SI])
        a = 1.0 if units is Units.REDUCED else 10.0 ** rng.uniform(-9.0, -5.0)
        R = a * 10.0 ** rng.uniform(-25.0, -12.0)
        phi = rng.choice(
            [
                0.0,
                1e-8,
                rng.uniform(0.0, math.pi / 4),
                10.0 ** rng.uniform(-300.0, math.log10(0.78)),
                math.nextafter(math.pi / 4, 0.0),
            ]
        )
        spec = CavitySpec(a=a, R=R, L=1.0, phi=phi, units=units)
        r = rng.choice([0.0, R, rng.uniform(0.0, R)])
        primary, oracle = limit_angles(spec, r), limit_angles_vector(spec, r)
        for window in (primary, oracle):
            assert isinstance(window, AngleWindow) and window.theta1 <= window.theta2, (spec, r, window)
        for p, o in zip(primary, oracle):
            assert abs(p - o) <= 2 * math.ulp(o), (spec, r, primary, oracle)
