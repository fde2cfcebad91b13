"""Exception hierarchy shared by all treecut modules.

Validation problems (bad trees, bad parameters, malformed files) raise
:class:`ValidationError`; blown size or attempt budgets raise
:class:`ResourceLimitError`.  The CLI maps the former to exit code 2 and
the latter to exit code 3.  The argument checks, :func:`_check_count`,
:func:`_check_real` and :func:`_check_array`, live here: one module decides all.
"""

import math
import numbers
import sys

import numpy as np


class TreecutError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TreecutError, ValueError):
    """Invalid input: malformed tree, bad parameter, unusable request."""


class InvalidTreeError(ValidationError):
    """A parent array that does not describe a rooted tree."""


class CycleError(InvalidTreeError):
    """Parent links contain a cycle (some vertex unreachable from the root)."""


class RootCountError(InvalidTreeError):
    """Not exactly one root sentinel in the parent array."""


class ParentIndexError(InvalidTreeError):
    """A parent entry is outside ``[0, n)``."""


class TreeFormatError(ValidationError):
    """Tree text that violates the canonical two-line format."""


class DegenerateInputError(ValidationError):
    """Quantity undefined for this input (constant function, n=1 gap, ...)."""


class ResourceLimitError(TreecutError, RuntimeError):
    """A configured size or attempt cap was exceeded."""


class RejectionCapError(ResourceLimitError):
    """Rejection sampling gave up.

    Carries the number of attempts and, when available, an estimate of the
    per-attempt acceptance probability so callers can judge feasibility.
    """

    def __init__(self, message, attempts, acceptance_estimate=None):
        super().__init__(message)
        self.attempts = attempts
        self.acceptance_estimate = acceptance_estimate


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut in the middle to 60 characters;
    Python writes no int of more than 4300 digits, so one shows as a placeholder."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 60 else f"{text[:28]}...{text[-28:]}"


def _check_count(value, name: str, low: int) -> int:
    """``value`` as an int; ``ValidationError`` unless an integer (not a
    bool) that is at least ``low``: a size, depth, degree, cap or count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {_shown(int(value))}")
    return int(value)


def _check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
                ends: str = "[]") -> float:
    """``value`` as a float; ``ValidationError`` unless a real number in the float range
    (not a bool) from ``low`` to ``high``, each end closed or open as ``ends`` marks it:
    NaN never."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or isinstance(value, numbers.Rational) and abs(value) > sys.float_info.max):
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}")
    value = float(value)
    if not ((low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise ValidationError(f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, got {value}")
    return value


def _check_array(value, name: str, shape: tuple = None, integer: bool = False,
                 low: float = -math.inf, high: float = math.inf, ends: str = "[]") -> np.ndarray:
    """A fresh int64 (``integer``) or float64 copy of ``value``; ``ValidationError``
    unless it has ``shape`` (any 1-d if None) and each entry is an integer (or real),
    not a bool, that fits the dtype and lies in the interval, read as in ``_check_real``.
    An ndarray is judged by its dtype; a list entry by entry, as numpy reads True as 1."""
    dtype, number, kind = (np.dtype(np.int64), (int, np.integer), "integers that fit int64") \
        if integer else (np.dtype(np.float64), numbers.Real, "real numbers that fit float64")
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "b" or not np.can_cast(value.dtype, dtype):
            raise ValidationError(f"{name} must hold {kind}, got a {value.dtype} array")
    else:
        try:
            value = list(value)
        except TypeError:
            raise ValidationError(f"{name} must be an array, got {_shown(value)}") from None
        for entry in value:
            if isinstance(entry, bool) or not isinstance(entry, number):
                raise ValidationError(f"{name} must hold {kind}, got {_shown(entry)}")
    try:
        array = np.array(value, dtype=dtype)
    except OverflowError:  # a Python int or fraction too large for the dtype
        raise ValidationError(f"{name} must hold {kind}, got {_shown(max(value, key=abs))}") from None
    if array.ndim != 1 or shape is not None and array.shape != shape:
        raise ValidationError(f"{name} must have shape {shape or '(k,)'}, got {array.shape}")
    inside = ((low <= array) if ends[0] == "[" else (low < array)) & (
        (array <= high) if ends[1] == "]" else (array < high))
    if not inside.all():
        raise ValidationError(
            f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, got {array[~inside][0]}")
    return array
