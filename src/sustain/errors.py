"""Exception types shared across the package."""


class SustainError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SustainError):
    pass


class NonfiniteValue(SustainError):
    """A gradient or iterate contained NaN/Inf."""


class InvalidConstants(SustainError):
    """Problem constants that are invalid, or that a formula cannot use."""


class MissingMetric(SustainError):
    pass
