"""Exception hierarchy shared across the package.

Every numeric failure mode has its own class so callers (and the CLI exit-code
mapper) can distinguish "your input is wrong" from "the algorithm could not
reach its tolerance".
"""


class BeadcorrError(Exception):
    """Base class for all package errors."""


class DomainError(BeadcorrError, ValueError):
    """Argument outside the mathematical domain of a function."""


class InvalidParameterError(BeadcorrError, ValueError):
    """Distribution or model parameters violate their invariants."""


class SeriesError(BeadcorrError):
    """Base class for series-evaluation failures."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial  # SeriesValue accumulated so far, if any


class SeriesNonConvergenceError(SeriesError):
    """The truncation box lies past the term caps, or the confirmation box
    moved the sum by more than the tolerance."""


class SeriesDivergenceError(SeriesError):
    """Term magnitudes grow: the expansion is outside its convergence region."""


class NumericUnderflowError(BeadcorrError):
    """A marginal density or truncation probability underflowed; the result
    would be extrapolation, so it is refused rather than clipped."""


class QuadratureError(BeadcorrError):
    """Adaptive integration exhausted its subdivision budget before reaching
    the requested tolerance."""


class UnsupportedMethodError(BeadcorrError):
    """Requested estimation method is not defined for the model family."""


class DegenerateControlsError(BeadcorrError):
    """Negative-control sample too small or constant; noise moments undefined."""


class DataFormatError(BeadcorrError):
    """Malformed input table (bad header, non-numeric cell, nonpositive value)."""
