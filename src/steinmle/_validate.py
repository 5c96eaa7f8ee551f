"""The input checks behind every public entry point, and the base of the
value types that store what they checked.

``real`` takes any ``numbers.Real`` (numpy floating and integer scalars
included) and returns a plain float; ``integer`` takes any
``numbers.Integral`` and returns a plain int, and ``master_seed`` an integer
in the range of the trial streams' key.  All refuse ``bool``, which is a
flag passed in the wrong place rather than the number 1, and anything that
is not a number, such as the string ``"0.5"``.  ``instance`` checks that a
value-type parameter holds its type.  A refusal is a DomainError whose
message starts with the parameter's name.  A bound request's options have
one check each: ``ball_radius`` the epsilon of every model on Theta =
(0, inf), ``perturbation`` the Poisson c and ``weights`` the h weights.
theta0's range, particular to a model, is checked where the model is.

No check imports numpy, so the bound verbs start without it.  For the
same reason the value types are plain classes on ``Value``, not dataclasses:
``dataclasses`` and the ``inspect`` it loads took longer to import than the
rest of the package.
"""

import math
import numbers
import operator

from .errors import DomainError

_INF = math.inf


def real(x, name, *, gt=None, ge=None, inf=False) -> float:
    """x as a float: a real number, not NaN, finite unless ``inf``, and
    above ``gt`` or at least ``ge`` where either is given."""
    v = x
    if type(v) is not float:  # the common case skips the ABC checks
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            v = math.nan
        else:
            try:
                v = float(x)
            except OverflowError:  # an int beyond the float range
                v = _INF if x > 0 else -_INF
    # v - v is 0.0 for a finite v and NaN for an infinite one (or NaN).
    if not (
        (v == v if inf else v - v == 0.0)
        and (gt is None or v > gt)
        and (ge is None or v >= ge)
    ):
        limit = f" > {gt:g}" if gt is not None else f" >= {ge:g}" if ge is not None else ""
        kind = "real" if inf else "finite real"
        raise DomainError(f"{name} must be a {kind}{limit}, got {x if v != v else v!r}")
    return v


def integer(x, name, *, ge=1) -> int:
    """x as an int: an integral number, not bool, at least ``ge``."""
    if type(x) is int and x >= ge:  # the common case skips the ABC checks
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < ge:
        raise DomainError(f"{name} must be an integer >= {ge}, got {x!r}")
    return operator.index(x)


def master_seed(x, name="seed") -> int:
    """x as a master seed: an integer in [0, 2^128), the range of the
    128-bit Philox key that the trial streams take."""
    v = integer(x, name, ge=0)
    if v >= 2**128:
        raise DomainError(f"{name} must be an integer < 2**128, got {x!r}")
    return v


def instance(x, cls, name):
    """x, if it is a ``cls``: anything else is a DomainError naming the
    parameter, before reading a field of it could raise another error."""
    if not isinstance(x, cls):
        raise DomainError(f"{name} must be of type {cls.__name__}, got {x!r}")
    return x


def ball_radius(epsilon, theta0: float) -> float:
    """epsilon (theta0/2 if None) as a float in (0, theta0): the radius of an
    epsilon-ball around theta0 inside Theta = (0, inf)."""
    eps = theta0 / 2.0 if epsilon is None else real(epsilon, "epsilon", gt=0.0)
    if not eps < theta0:
        raise DomainError(f"epsilon must lie in (0, theta0) = (0, {theta0!r}), got {eps!r}")
    return eps


def perturbation(c):
    """c as the Poisson bound takes it: "auto" (the minimising c) or a finite
    real > 0, as a float; any other string, None, bool or array is refused."""
    if isinstance(c, str) and c == "auto":
        return "auto"
    return real(c, "c", gt=0.0)


def weights(h_weights) -> tuple:
    """h_weights, a tuple or list (sup_norm, lip_norm) of nonnegative finite
    reals, as floats.  None is refused on every route, as an array is: the
    unit weights are passed as (1.0, 1.0), every default."""
    if not (isinstance(h_weights, (tuple, list)) and len(h_weights) == 2):
        raise DomainError(f"h_weights must be a (sup_norm, lip_norm) pair, got {h_weights!r}")
    return real(h_weights[0], "sup weight", ge=0.0), real(h_weights[1], "lip weight", ge=0.0)


class Value:
    """A frozen value: ``__init__`` checks its fields and stores them once,
    with ``vars(self).update``.  Equality, hash and repr read the public
    attributes in the order they were stored (a name starting with ``_`` is
    a cache, not a field); assignment and deletion are refused."""

    def _field_items(self):
        return [(name, value) for name, value in vars(self).items() if name[0] != "_"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_items() == other._field_items()

    def __hash__(self):
        return hash(tuple(value for _, value in self._field_items()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._field_items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
