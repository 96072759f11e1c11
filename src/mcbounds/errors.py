"""Exception hierarchy.

``InputError`` marks bad arguments or configuration (CLI exit code 2);
``MathError`` and its subclasses mark mathematical or verification failures
(CLI exit code 3).
"""

from __future__ import annotations


class McbError(Exception):
    """Base class for all package errors."""


class InputError(McbError, ValueError):
    """Invalid argument, dimension mismatch, or malformed configuration."""


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
