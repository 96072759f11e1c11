"""Exception hierarchy.

``InputError`` marks bad arguments or configuration (CLI exit code 2);
``MathError`` and its subclasses mark mathematical or verification failures
(CLI exit code 3). ``integer`` is the one check of an integer argument.
"""

from __future__ import annotations

import math
import operator


class McbError(Exception):
    """Base class for all package errors."""


class InputError(McbError, ValueError):
    """Invalid argument, dimension mismatch, or malformed configuration."""


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int, when it is an integer in low..high (no
    upper end when ``high`` is None): anything ``operator.index`` takes, so a
    numpy integer passes, but no bool. Anything else, a float or a string
    among them, is an ``InputError`` naming ``name``."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is not None and low <= index and (high is None or index <= high):
        return index
    limits = f">= {low}" if high is None else f"in {low}..{high}"
    if index is None:
        shown = repr(value)
    else:
        try:
            shown = str(index)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            n = abs(index)
            d = int(n.bit_length() * math.log10(2))  # within one of the digit count
            shown = f"an integer of {d + (10**d <= n) - (10 ** (d - 1) > n)} digits"
    raise InputError(f"{name} must be an integer {limits}, got {shown}")


class MathError(McbError):
    """A computation failed for mathematical reasons."""


class NonUniqueStationaryError(MathError):
    """The unit-eigenvalue left-eigenspace has dimension greater than one."""


class PeriodicChainError(MathError):
    """Multiple eigenvalues of unit modulus; no geometric eigen bound exists."""


class IllConditionedEigenbasisError(MathError):
    """Eigenvector matrix too ill-conditioned; use the minorization route instead."""


class ThresholdNotReachedError(MathError):
    """A bound did not fall below the requested threshold within the step cap."""


class DriftConversionError(MathError):
    """Univariate-to-bivariate drift conversion precondition violated."""


class ContainmentError(MathError):
    """Probability mass escapes the region assumed to contain all moves."""


class QuadratureError(MathError):
    """Numeric integration did not converge to the requested tolerance."""
