"""Exception types shared across the package, and the checks of numbers.

Errors that certify a numerical judgement carry the offending quantity so
callers can report or log it without re-deriving anything.  Number
arguments are checked by `_real` (a real number in a range) or `_period`
(an integer >= a least value), and array arguments by `_array` (a
rectangular array of finite real numbers, whole ones where integers are
asked for), which raise InvalidInputError naming the argument; every module
imports this one.
"""

import math
import numbers
import reprlib

import numpy as np

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
    """Malformed argument: wrong shape, non-finite entries, bad parameter.

    A number outside its range, NaN, an infinity where none is allowed, or
    a value that is not a number at all (a numeric string included) raises
    this error, with the argument's name in the message, and so does an
    array that is ragged or holds such a value; never a bare TypeError,
    OverflowError or a NaN result."""


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


def _real(x, name: str, *, gt=None, ge=None, lt=None, le=None, inf: bool = False):
    """x unchanged, or InvalidInputError naming `name` unless x is a real
    number, not NaN, finite (an infinity too when `inf`), and > gt, >= ge,
    < lt and <= le for each bound given."""
    if type(x) is float or isinstance(x, numbers.Real):
        if (-math.inf < x < math.inf or (inf and x == x)) and (
            (gt is None or x > gt) and (ge is None or x >= ge)
            and (lt is None or x < lt) and (le is None or x <= le)
        ):
            return x
    low = f"({gt:g}" if gt is not None else f"[{ge:g}" if ge is not None else "[-inf" if inf else "(-inf"
    high = f"{lt:g})" if lt is not None else f"{le:g}]" if le is not None else "inf]" if inf else "inf)"
    raise InvalidInputError(f"{name} must be a real number in {low}, {high}, not {x!r}")


def _period(n, least: int = 1, name: str = "period") -> int:
    """n as an int, or InvalidInputError unless it is an integer >= least.
    Python ints skip the slower `numbers.Integral` test."""
    if type(n) is not int and not isinstance(n, numbers.Integral) or n < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, not {n!r}")
    return int(n)


def _array(x, name: str, integer: bool = False) -> np.ndarray:
    """x as a float array, or as an int64 array when `integer`: a number or
    a rectangular array (nested lists included) of integers or floats, none
    NaN or infinite, and each a whole number in int64's range when
    `integer`.  InvalidInputError naming `name` otherwise: for a ragged
    array, or one of strings (numeric ones included, as `_real` refuses
    them), None or other objects.  A float array comes back as it is."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be a rectangular array of real numbers, not {reprlib.repr(x)}")
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            raise InvalidInputError(f"non-finite {name}")
        if integer and not ((arr == np.rint(arr)) & (np.abs(arr) < 2.0**63)).all():
            raise InvalidInputError(f"{name} must be integers, not {reprlib.repr(x)}")
    return arr.astype(np.int64 if integer else float, copy=False)
