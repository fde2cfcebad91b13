"""Exception hierarchy shared by all treecut modules.

Validation problems (bad trees, bad parameters, malformed files) raise
:class:`ValidationError`; blown size or attempt budgets raise
:class:`ResourceLimitError`.  The CLI maps the former to exit code 2 and
the latter to exit code 3.  The two number checks, :func:`_check_count` for
integers and :func:`_check_real` for reals, live here: one module decides both.
"""

import math
import numbers

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


def _check_count(value, name: str, low: int) -> int:
    """``value`` as an int; ``ValidationError`` unless an integer (not a
    bool) that is at least ``low``: a size, depth, degree, cap or count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
                ends: str = "[]") -> float:
    """``value`` as a float; ``ValidationError`` unless a real number (not a bool)
    from ``low`` to ``high``, each end closed or open as ``ends`` marks it: NaN never."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not ((low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise ValidationError(f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, got {value}")
    return value
