"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so the
CLI can map failure classes to exit codes (validation -> 2, numerical -> 3).

Inputs are checked by ``_validate``: a bad real number or count is a
DomainError naming the parameter.  A valid input whose computation leaves the
float range (an overflow, a value that underflows to 0 and is divided by, or
a difference that cancels to 0 where it must be positive) is a
FloatRangeError, a numerical failure.
"""

import functools


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
    power overflowed, a value underflowed to zero and was divided by, or a
    difference that must be positive cancelled to zero."""


def float_range(fn, name=None):
    """Raise FloatRangeError, naming ``name`` (by default ``fn``'s own), where
    ``fn`` meets OverflowError or ZeroDivisionError."""
    name = name or fn.__name__

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            what = "overflowed" if isinstance(exc, OverflowError) else "underflowed to 0"
            raise FloatRangeError(
                f"{name}: an intermediate value {what}; the input lies outside "
                "the float range of this computation"
            ) from exc

    return guarded

