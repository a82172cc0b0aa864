"""Exception hierarchy shared across the package.

Everything raised on purpose derives from CurveInvError so callers can
catch the package's failures without also swallowing genuine bugs.
"""

from __future__ import annotations


class CurveInvError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DivisionByZero(CurveInvError, ZeroDivisionError):
    """Inverse or division by the zero element of a field."""


class UnsupportedInput(CurveInvError, ValueError):
    """Input outside what a routine is built for, such as an oracle's degree
    or characteristic bounds; raised where the input enters, so it is bad input."""


class IncompatibleContexts(CurveInvError):
    """Two elements from unrelated field contexts were combined."""


class NoEmbedding(CurveInvError):
    """No field homomorphism exists between the given contexts."""


class TowerLimitExceeded(CurveInvError):
    """An extension tower grew past the supported depth."""


class ParseError(CurveInvError):
    """Malformed polynomial text.  Carries the offset of the bad token."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class WrongVariables(ParseError):
    """Polynomial text uses variables outside the expected alphabet."""


class NotReduced(CurveInvError):
    """Input curve has a repeated component where a reduced one is required."""


class NotSingularAtOrigin(CurveInvError):
    """Branch decomposition was requested for a curve not passing through the origin."""


class UndefinedAtOrigin(CurveInvError):
    """A local intersection number was requested where neither input vanishes."""


class DegenerateDirection(CurveInvError):
    """A coordinate shear was requested along a direction it cannot realize."""


class CharZeroPthRoot(CurveInvError):
    """A p-th root was requested in characteristic zero."""


class ShearExhausted(CurveInvError):
    """No usable shear direction was found within the retry budget."""


class EliminationDegenerate(CurveInvError):
    """Projection-based elimination stayed degenerate for every attempted frame."""


class NotHomogeneous(CurveInvError):
    """A projective routine received a non-homogeneous polynomial."""


class PositiveDimensionalSingularLocus(CurveInvError):
    """The singular locus is not a finite set of points."""


class ReducibleCurve(CurveInvError):
    """A projective curve required to be irreducible visibly splits."""


class InternalCheckError(CurveInvError):
    """A redundant self-verification failed; indicates a bug, not bad input."""
