"""Exception types shared across the package, and the integer, real and array checks.

Two categories matter to callers (and to the CLI exit codes): bad input
versus a numerical result that violates an internal consistency guarantee.
"""

import math
import numbers

import numpy as np


class DimcertError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(DimcertError, ValueError):
    """Invalid dimension, parameter, rank, state, or unsupported request."""


class NumericalConsistencyError(DimcertError, ArithmeticError):
    """A quantity that must be real/consistent came out otherwise.

    Raised when floating-point output contradicts a mathematical guarantee
    (e.g. a correlation coefficient with an imaginary part beyond 1e-9),
    which points at a corrupted input matrix rather than roundoff.
    """


def _check_int(value, name, lo=1, hi=None):
    """``value`` as an int if it is an integer in [lo, hi], else InvalidInputError.

    ``hi=None`` leaves the range open above; bool is not an integer here.
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    rule = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    raise InvalidInputError(f"{name} must be {rule}, got {value!r}")


def _check_real(value, name):
    """``value`` as a float if it is a finite real number, else InvalidInputError.

    Strings, None and bool are not numbers here; an int too large for a
    float is not finite.
    """
    if type(value) is float and math.isfinite(value):  # the common case
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real):
            return real
    raise InvalidInputError(
        f"{name} must be a finite real number, got {value!r}")


def _check_array(value, name):
    """``value`` as a numeric ndarray (no copy where it is one), else InvalidInputError.

    Strings, even numeric ones, objects and ragged nesting are not numeric
    arrays here; shape and finiteness are left to the caller.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "biufc":
        raise InvalidInputError(f"{name} must be a numeric array, got {value!r:.60}")
    return arr
