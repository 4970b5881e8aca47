"""Exception types raised by mfland operations."""


class MflandError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MflandError):
    """Malformed matrix data, bad shapes, or unusable argument values."""


class DimensionError(MflandError):
    """Shapes of factors/tangents are incompatible with the data matrix."""


class InvalidSelection(MflandError):
    """Selection indices are out of range, duplicated, or too many."""


class NotCritical(MflandError):
    """A point required to be critical is not rebuilt, to the reduction's
    bound, from an exactly critical canonical point."""


class RankAmbiguous(MflandError):
    """Numerical rank of W sits inside the tolerance window."""


class SingularGroupElement(MflandError):
    """The supplied k-by-k matrix is singular (or numerically so)."""


class NotASaddle(MflandError):
    """A closed-form minimum eigenvalue was requested at a global minimum."""


class TooLarge(MflandError):
    """The dense Hessian would exceed the supported size."""


class NumericalFailure(MflandError):
    """A computation could not reach its contracted accuracy."""


class StiffnessFailure(MflandError):
    """Adaptive step size underflowed during flow integration."""
