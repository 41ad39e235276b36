"""Exception types shared across the package.

Mathematical "negative" answers (no separability idempotent, an element that
is not nilpotent, an inconsistent linear system) are returned as values
(``None``), never raised.  Exceptions mean the *request* was bad or an
internal invariant broke.
"""


class PcaError(Exception):
    """Base class for all package errors."""


class FieldMismatch(PcaError):
    """Operands live over different base fields."""


class DivisionByZero(PcaError, ZeroDivisionError):
    """Division or inversion of the zero scalar."""


class UnsupportedField(PcaError):
    """The operation is not implemented over this base field."""


class BadSpec(PcaError):
    """Malformed structure-constant or file input."""


class NotAssociative(BadSpec):
    """Multiplication table fails associativity; args carry a witness triple."""


class NoUnit(BadSpec):
    """No two-sided unit exists for the multiplication table."""


class AmbientMismatch(PcaError):
    """Subspace operation on spaces of different ambient dimension or field."""


class NotAnExtension(PcaError):
    """Target field is not an extension of the source field."""


class ImproperIdeal(PcaError):
    """Quotient by the whole algebra requested."""


class NotAHom(PcaError):
    """Matrix is not a unital algebra homomorphism; args carry a witness."""


class NotAnIdeal(PcaError):
    """Subspace is not closed under the declared multiplications."""


class TooLarge(PcaError):
    """An input or a brute-force enumeration exceeds its size bound."""


class NotSemisimple(PcaError):
    """Operation requires a semisimple algebra."""


class NotCoprime(PcaError):
    """Ideals are not pairwise coprime; args carry a witness pair."""


class NoSolutionInconsistency(PcaError):
    """CRT lift became inconsistent; cannot occur when the ideals are
    pairwise coprime."""


class NotADerivation(PcaError):
    """Map fails the Leibniz rule; args carry a witness pair."""


class NotIdempotentModJ(PcaError):
    """Vector is not idempotent modulo the radical."""


class NotSeparableQuotient(PcaError):
    """Splitting requires the semisimple quotient to be separable."""


class NotInner(PcaError):
    """A derivation that must be inner was not; indicates a bug upstream."""


class CoboundaryUnsolvable(PcaError):
    """Defect system has no solution; cannot occur under the preconditions."""


class TheoremViolation(PcaError):
    """A levelwise theorem check failed on a tower; indicates a bug."""


class IncompatibleCoordinates(PcaError):
    """Tower element coordinates disagree with the connecting maps."""


class EmptyQuiver(PcaError):
    """Quiver has no vertices."""


class NonComposableRelation(PcaError):
    """Quiver relation contains a non-composable or too-short path."""


class InternalVerificationFailed(PcaError):
    """A computed result failed its own postcondition check (a bug, never
    silently returned)."""
