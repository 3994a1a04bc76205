"""Exception types shared across the package."""


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


class NumericDegeneracy(TrapcavError):
    """A denominator vanished beyond recovery."""


class NonPositiveGap(TrapcavError):
    """Plate separation must be positive."""


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


class NonFiniteSample(TrapcavError):
    """An integrand or pressure sample is NaN or infinite, or a force or its slope is no normal float.

    ``x`` is the sample's coordinate.  A pressure names its ``component``
    (``"p_x"`` or ``"p_z"``), and ``x`` is its wing coordinate r.  A force
    names its component (``"f_x"`` or ``"f_z"``), and ``x`` is its wing
    length.  The optimizer's d f_x / d phi names ``"df_x/dphi"``, and ``x``
    is its angle phi; it is refused where its terms are no normal floats.
    """

    def __init__(self, x: float, value: float, component: str | None = None) -> None:
        self.x = x
        self.value = value
        if component is None:
            message = f"integrand returned {value!r} at x={x!r}"
        elif component.startswith("p"):
            message = f"pressure {component} is {value!r} at r={x!r}"
        elif component.startswith("d"):
            message = f"slope {component} is {value!r} at phi={x!r}; its terms are not normal floats"
        else:
            message = f"force component {component} is {value!r}, not a normal float"
        super().__init__(message)


class NoInteriorMaximum(TrapcavError):
    """``optimize_phi`` found no peak of |f_x| strictly inside its window.

    d f_x / d phi is not negative at the window's low end and positive at
    its high end, or the root lies within rounding of an end.
    """

