"""Exception types shared across the package."""

from __future__ import annotations


class TrapcavError(Exception):
    """Base class for every error raised by this package."""


class InvalidCavity(TrapcavError):
    """A cavity parameter violates its allowed range."""

    def __init__(self, field: str, reason: str) -> None:
        self.field = field
        self.reason = reason
        super().__init__(f"invalid cavity parameter {field!r}: {reason}")


class OutOfRange(TrapcavError):
    """A coordinate or argument lies outside its allowed interval."""

    def __init__(self, name: str, value: float, lo: float, hi: float) -> None:
        self.name = name
        self.value = value
        self.lo = lo
        self.hi = hi
        super().__init__(f"{name}={value!r} outside [{lo!r}, {hi!r}]")


class DegenerateFan(TrapcavError):
    """The visible ray fan has collapsed (theta1 >= theta2)."""


class NumericDegeneracy(TrapcavError):
    """A denominator vanished beyond recovery."""


class NonPositiveGap(TrapcavError):
    """Plate separation must be positive."""


class NotConverged(TrapcavError):
    """Adaptive integration stopped early; carries the best estimate found.

    ``value`` and ``error_estimate`` follow the integrand's shape: floats,
    or tuples of floats for a vector integrand.

    Attributes:
        value: best integral estimate at the point of giving up.
        error_estimate: summed panel error estimate for that value.
        evaluations: integrand evaluations spent.
        kernel_calls: calls of the integrand that evaluated its panels.
    """

    def __init__(self, value, error_estimate, evaluations: int, kernel_calls: int = 0) -> None:
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations
        self.kernel_calls = kernel_calls
        super().__init__(
            f"quadrature stopped at value={value!r} "
            f"with error estimate {error_estimate!r} after {evaluations} evaluations"
        )


class NonFiniteSample(TrapcavError):
    """The integrand returned NaN or infinity."""

    def __init__(self, x: float, value: float) -> None:
        self.x = x
        self.value = value
        super().__init__(f"integrand returned {value!r} at x={x!r}")


class NoInteriorMaximum(TrapcavError):
    """The optimizer prescan found no single interior peak on the grid."""

