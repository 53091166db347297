"""Exception types shared across the package."""


class SustainError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SustainError):
    pass


class NonfiniteValue(SustainError):
    """A gradient or iterate contained NaN/Inf."""


class InvalidConstants(SustainError):
    pass


class DegenerateArgument(SustainError):
    pass


class SingularDenominator(SustainError):
    pass


class DivisionByZero(SustainError):
    """Degenerate problem constants make a schedule formula undefined."""


class NotSPD(SustainError):
    pass


class EmptyDataset(SustainError):
    pass


class InvalidBatch(SustainError):
    pass


class NonPositiveValue(SustainError):
    pass


class InsufficientPoints(SustainError):
    pass


class MissingMetric(SustainError):
    pass
