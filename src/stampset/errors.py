"""Exception types shared across the package.

Input problems raise one of the specific classes below; all of them derive
from StampsetError so callers can catch package errors in one clause.
Internal consistency violations (facts that are theorems of the underlying
arithmetic) raise plain RuntimeError instead: they indicate a bug, not bad
input.
"""

from __future__ import annotations

__all__ = [
    "StampsetError",
    "DegenerateSetError",
    "InvalidSetError",
    "NotRepresentableError",
    "ModulusMismatchError",
    "EmptySetError",
    "NotGeneratingError",
    "TooSmallError",
    "InvalidResidueError",
    "CatalogMismatchError",
]


class StampsetError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSetError(StampsetError):
    """The input set has fewer than two elements."""


class InvalidSetError(StampsetError):
    """The input set, or a count that goes with it, is not acceptable.

    Raised for a set that is not normalized (0 = min, gcd of elements 1),
    for elements that ``operator.index`` refuses (such as 1.5 or 2.0), for
    negative or unsorted elements, for a literal that is not a
    comma-separated integer list or that repeats an element, and for an
    ``analyze --N`` below 1.
    """


class NotRepresentableError(StampsetError):
    """The target integer is not a sum of exactly N elements of the set."""


class ModulusMismatchError(StampsetError):
    """Two residue sets live in different ambient groups Z/bZ."""


class EmptySetError(StampsetError):
    """A residue set that must be non-empty is empty."""


class NotGeneratingError(StampsetError):
    """The residue set does not generate Z/bZ."""


class TooSmallError(StampsetError):
    """The set has too few interior elements for the requested analysis."""


class InvalidResidueError(StampsetError):
    """A residue argument lies outside the range 1..b-1."""


class CatalogMismatchError(StampsetError):
    """An exhaustive scan found a set whose observed behaviour contradicts
    the exceptional-family catalog it was checked against.

    The offending records are attached as ``.result`` (a ScanResult) so the
    evidence survives the exception.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result
