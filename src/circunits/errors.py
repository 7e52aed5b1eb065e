"""Exception hierarchy shared by all circunits modules."""

__all__ = [
    "CircUnitsError",
    "LevelMismatch",
    "EvenGaloisIndex",
    "NotAUnit",
    "InternalInconsistency",
    "NotReal",
    "NonRealWord",
    "NotIntegral",
    "LevelTooSmall",
    "IndexOutOfRange",
    "IndexNotInPartition",
    "DisagreementError",
]


class CircUnitsError(Exception):
    """Base class for every error raised by this package."""


class LevelMismatch(CircUnitsError):
    """Two operands live at different levels n and cannot be combined."""


class EvenGaloisIndex(CircUnitsError):
    """A Galois automorphism index must be odd."""


class NotAUnit(CircUnitsError):
    """The element does not have norm +-1, so it cannot be inverted."""


class InternalInconsistency(CircUnitsError):
    """A mathematical self-check failed; indicates a bug, not bad input."""


class NotReal(CircUnitsError):
    """The element is not fixed by complex conjugation."""


class NonRealWord(CircUnitsError):
    """The unit word carries a nonzero alpha exponent and has no real coordinates."""


class NotIntegral(CircUnitsError):
    """A division that the construction requires to be exact left a remainder."""


class LevelTooSmall(CircUnitsError):
    """The requested operation needs a larger level n."""


class IndexOutOfRange(CircUnitsError):
    """A sequence or generator index lies outside its admissible range."""


class IndexNotInPartition(CircUnitsError):
    """The index j does not belong to the funnel set required for q(k, j)."""


class DisagreementError(CircUnitsError):
    """The exhaustive and linearized verification methods returned different verdicts."""
