"""Exception types shared across the workbench."""


class RokhlinError(Exception):
    """Base class for all workbench errors."""


class NonPrimitive(RokhlinError):
    """The substitution is not primitive (checked up to the Wielandt exponent)."""


class PeriodicSystem(RokhlinError):
    """The generated subshift is finite (factor complexity stabilizes)."""


class WindowTooSmall(RokhlinError):
    """A coordinate window does not cover the data needed for an exact answer.

    ``achievable`` carries the best error attainable at the requested window
    when the failure is an approximation shortfall rather than missing data.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class BoundSearchExceeded(RokhlinError):
    """No forward-return bound was found within the enumeration depth."""


class PreconditionViolated(RokhlinError):
    """An enforced evaluation precondition fails (e.g. Z not inside Y)."""


class PathMismatch(RokhlinError):
    """A point does not lie in the path set it was evaluated against."""


class NotInStageAlgebra(RokhlinError):
    """A component tuple violates the gluing conditions of a stage algebra.

    ``violation`` is a ``(level, mu, word)`` triple locating the first failure
    when one is available.
    """

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class NotProductWindowSet(RokhlinError):
    """The base set is not a product of per-coordinate letter constraints."""


class ZeroElement(RokhlinError):
    """The zero element was passed where a nonzero one is required."""


class NotHermitian(RokhlinError):
    """A matrix fails the Hermitian or positive-semidefinite tolerance."""


class BaseMismatch(RokhlinError):
    """Two matrix-valued elements live over different base sets."""


class InvariantViolated(RokhlinError):
    """An internal invariant of a construction failed: a defect in the
    workbench or in a hand-built system, not bad input.  Raised explicitly so
    that it survives ``python -O``."""
