"""Exception types shared across the package.

Errors that certify a numerical judgement carry the offending quantity so
callers can report or log it without re-deriving anything.
"""

__all__ = [
    "OrbitLabError",
    "InvalidInputError",
    "MapDomainError",
    "OrbitEscapeError",
    "RecurrenceError",
    "NearDiagonalError",
    "CannotPerturbError",
    "ConfigurationError",
    "UncertifiedCensusError",
]


class OrbitLabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrbitLabError, ValueError):
    """Malformed argument: wrong shape, non-finite entries, bad parameter."""


class MapDomainError(OrbitLabError, ValueError):
    """A point lies outside the domain ball of a map."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class OrbitEscapeError(OrbitLabError):
    """An iterate left the domain ball. ``escape_index`` is the first bad iterate."""

    def __init__(self, message, escape_index, point=None):
        super().__init__(message)
        self.escape_index = escape_index
        self.point = point


class RecurrenceError(OrbitLabError):
    """A trajectory revisits (or nearly revisits) an earlier point, so a
    division by the product of distances is not safe. Carries the product."""

    def __init__(self, message, product=0.0):
        super().__init__(message)
        self.product = product


class NearDiagonalError(OrbitLabError):
    """A confluent-interpolation solve hit a vanishing product of anchor
    differences. Carries the product and the row where it happened."""

    def __init__(self, message, product=0.0, row=None):
        super().__init__(message)
        self.product = product
        self.row = row


class CannotPerturbError(OrbitLabError):
    """The affine relation used to move a multiplier is degenerate."""


class ConfigurationError(OrbitLabError):
    """Inconsistent or unusable configuration (divergent family, bad budget)."""


class UncertifiedCensusError(OrbitLabError):
    """A census finished without certification. Carries the partial result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
