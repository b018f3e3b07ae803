"""Exception hierarchy for royalty-model inputs and degenerate cases.

Validation errors always name the violated constraint in their message so
callers (and the command line) can report actionable diagnostics.
"""

from __future__ import annotations


class RoyaltyModelError(Exception):
    """Base class for every error raised by this package."""


class BoundsValidationError(RoyaltyModelError, ValueError):
    """An input violates one of the documented validity constraints."""


class OutOfRangeError(BoundsValidationError):
    """A value lies outside its permitted interval."""


class DisorderedBoundsError(BoundsValidationError):
    """An interval's lower bound exceeds its upper bound."""


class SurplusViolationError(BoundsValidationError):
    """Combined disagreement payoffs exceed the divisible operating income."""


class DegeneracyError(RoyaltyModelError):
    """Base class for inputs on which a model or distribution degenerates."""


class DegeneratePayoffsError(DegeneracyError):
    """The bargaining model is undefined at the supplied payoffs."""


class DegenerateDistributionError(DegeneracyError):
    """The share is deterministic, so the requested distribution curve
    does not exist as a density."""


class EmptySampleError(RoyaltyModelError, ValueError):
    """A sample statistic was requested from an empty sample."""


class NumericalAccuracyError(RoyaltyModelError):
    """A numeric engine could not reach its documented error target."""
