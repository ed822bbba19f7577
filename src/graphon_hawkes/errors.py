"""Semantic exceptions; every public error carries a stable string code."""


class GraphonHawkesError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class InvalidParameterError(GraphonHawkesError, ValueError):
    code = "invalid-parameter"


class InvalidArgumentError(GraphonHawkesError, ValueError):
    code = "invalid-argument"


class OutOfDomainError(GraphonHawkesError, ValueError):
    code = "out-of-domain"


class NegativeTimeError(GraphonHawkesError, ValueError):
    code = "negative-time"


class GridTooLargeError(GraphonHawkesError):
    code = "grid-too-large"


class ShapeError(GraphonHawkesError, ValueError):
    code = "shape-error"


class UnstableModelError(GraphonHawkesError):
    code = "unstable-model"


class RequiresThinningError(GraphonHawkesError):
    code = "requires-thinning-simulator"


class ThinningBoundError(GraphonHawkesError):
    code = "thinning-bound-violated"


class DegenerateDensityError(GraphonHawkesError, ValueError):
    code = "degenerate-density"


class NoLifetimesError(GraphonHawkesError, ValueError):
    code = "no-lifetimes"


class AcausalHistoryError(GraphonHawkesError, ValueError):
    code = "acausal-history"


class DomainMismatchError(GraphonHawkesError, ValueError):
    code = "domain-mismatch"


class ResolutionTooCoarseError(GraphonHawkesError, ValueError):
    code = "resolution-too-coarse"


class BadCellCountError(GraphonHawkesError, ValueError):
    code = "bad-cell-count"


class PrelimitUnstableError(GraphonHawkesError):
    code = "prelimit-unstable"


class OutdegreeConditionError(GraphonHawkesError):
    code = "outdegree-condition-failed"
