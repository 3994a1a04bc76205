"""The cavity spec: its fields, its units, :func:`validate` and the constants.

A cavity is two straight wings of length ``R``, tilted by ``+phi`` and
``-phi`` and separated by a gap ``a`` at the narrow end, ``L`` wide along
the translation axis (:mod:`~trapcav.geometry` draws it).  This module
holds what every force needs and no ray formula: the spec, its units and
:func:`validate`, the prefactor :data:`K` and :func:`pressure_prefactor`,
and the bounds :data:`PHI_MAX` and :data:`REL_TOL_FLOOR` (the CLI's
--phi-tol-deg floor is ``trapcav.cli.PHI_TOL_FLOOR``).
:mod:`~trapcav.geometry` re-exports every name.
"""

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import InvalidCavity

#: Exclusive upper bound for the half-opening angle.
PHI_MAX = math.pi / 4

#: Prefactor of the parallel-plate pressure, hbar c pi^2 / 240 in N m^2
#: (2018 recommended values of hbar and c).
K = 1.054571817e-34 * 2.99792458e8 * math.pi**2 / 240.0

#: Smallest relative tolerance a force or an adaptive integral accepts.  It
#: has two users: :mod:`~trapcav.quadrature` floors each Gauss-Kronrod
#: panel's error estimate at this share of the integral of |f| over it, so
#: a tolerance below it can never be met there, and the force functions of
#: :mod:`~trapcav.forces` refuse a ``rel_tol`` below it.
REL_TOL_FLOOR = 50.0 * sys.float_info.epsilon


class Units(str, Enum):
    """Unit system a cavity is expressed in.

    SI: lengths in meters, pressures in pascal, forces in newton.
    REDUCED: lengths in units of the gap (so ``a`` must equal 1) and the
    pressure prefactor set to exactly 1; useful for testing because SI
    magnitudes at sub-micron gaps underflow eyeballs, not doubles.
    """

    SI = "si"
    REDUCED = "reduced"


# validate and pressure_prefactor run on every force and every sweep row:
# on Python 3.11 the Enum metaclass defines __getattr__, so each
# Units.REDUCED lookup costs about 110 ns, against about 10 ns for this
# module global (timeit, 2-vCPU Xeon)
_REDUCED = Units.REDUCED


class CavitySpec(NamedTuple):
    """Trapezoid cavity: gap ``a``, wing length ``R``, width ``L``, half-angle ``phi``.

    ``phi`` is in radians.  ``L`` is the extent along the translation axis;
    forces scale linearly with it.
    """

    a: float
    R: float
    L: float
    phi: float
    units: Units = Units.SI


def validate(spec: CavitySpec) -> None:
    """Raise :class:`InvalidCavity` unless every cavity invariant holds.

    The closed triangle (a = 0) is rejected because the ray pressure
    diverges at the apex; ``phi`` is capped below pi/4 so the visible fan
    cannot fold onto the wing itself.  Each bound is one chained
    comparison, such as ``0.0 < a < inf``, which is false for NaN and for
    either infinity, so no separate finiteness test is needed.  A field
    that does not compare with a float, such as a ``str``, raises
    ``TypeError``.
    """
    a, R, L, phi, units = spec
    if not isinstance(units, Units):
        raise InvalidCavity("units", f"expected a Units member, got {units!r}")
    if not 0.0 < a < math.inf:
        raise InvalidCavity("a", "gap must be positive and finite (a = 0 closes the cavity)")
    if not 0.0 < R < math.inf:
        raise InvalidCavity("R", "wing length must be positive and finite")
    if not 0.0 < L < math.inf:
        raise InvalidCavity("L", "cavity width must be positive and finite")
    if not 0.0 <= phi < PHI_MAX:
        raise InvalidCavity("phi", f"half-angle must lie in [0, pi/4), got {phi!r}")
    if units is _REDUCED and a != 1.0:
        raise InvalidCavity("a", "reduced units fix the gap at a = 1")


def pressure_prefactor(spec: CavitySpec) -> float:
    """K in SI mode, exactly 1.0 in reduced mode.

    Reduced mode exists because s^4 at nanometer scales times 1e-27 makes
    intermediate magnitudes miserable to compare; dropping the prefactor
    changes nothing about the geometry content.
    """
    return 1.0 if spec.units is _REDUCED else K
