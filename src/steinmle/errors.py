"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so the
CLI can map failure classes to exit codes (validation -> 2, numerical -> 3).
"""

import functools
import numbers


class SteinMLEError(Exception):
    """Base class for all package errors."""


class DomainError(SteinMLEError, ValueError):
    """An input violates a documented precondition."""


class UnknownModelError(DomainError):
    """A model name is not in the registry."""


class DegenerateSampleError(SteinMLEError, ValueError):
    """A sample cannot support the requested estimate (e.g. zero mean)."""


class ConvergenceError(SteinMLEError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance.

    Carries enough state (`details`) to diagnose: bracket endpoints for root
    finders, achieved error estimates for quadrature.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class FloatRangeError(SteinMLEError, ArithmeticError):
    """An intermediate value left the float range at an extreme input: a
    power overflowed, or a value underflowed to zero and was divided by."""


def float_range(fn):
    """Raise FloatRangeError where ``fn`` meets OverflowError or ZeroDivisionError."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            what = "overflowed" if isinstance(exc, OverflowError) else "underflowed to 0"
            raise FloatRangeError(
                f"{fn.__name__}: an intermediate value {what}; the input lies outside "
                "the float range of this computation"
            ) from exc

    return guarded


def is_real(x) -> bool:
    """Whether x is a real number: a Python int or float, or any other
    ``numbers.Real`` such as a numpy floating or integer scalar."""
    if type(x) is float or type(x) is int:  # the common case, without the ABC check
        return True
    return isinstance(x, numbers.Real)
