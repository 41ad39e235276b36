"""Exception types shared across the package.

Mathematical "negative" answers (no separability idempotent, an element that
is not nilpotent, an inconsistent linear system) are returned as values
(``None``), never raised.  Exceptions mean the *request* was bad or an
internal invariant broke.

Each law is stated once, in its type's ``verify()``, which raises a typed
error.  On input from outside that error is the answer.  A result the
package computed is proved through ``_internal``, which turns any failure
into ``InternalVerificationFailed``: a program fault, never bad input.
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
    """Linear map is not a unital algebra homomorphism; args carry a
    witness."""


class NotAnIdeal(PcaError):
    """Subspace is not closed under the declared multiplications."""


class TooLarge(PcaError):
    """An input or a brute-force enumeration exceeds its size bound."""


class NotSemisimple(PcaError):
    """Operation requires a semisimple algebra."""


class NotCoprime(PcaError):
    """Ideals are not pairwise coprime; args carry a witness pair."""


class NotADerivation(PcaError):
    """Map fails the Leibniz rule; args carry a witness pair."""


class NotIdempotentModJ(PcaError):
    """Vector is not idempotent modulo the radical."""


class IncompatibleCoordinates(PcaError):
    """Tower element coordinates disagree with the connecting maps."""


class EmptyQuiver(PcaError):
    """Quiver has no vertices."""


class NonComposableRelation(PcaError):
    """Quiver relation contains a non-composable or too-short path."""


class InternalVerificationFailed(PcaError):
    """A computed result failed its own postcondition check (a bug, never
    silently returned)."""


class TheoremViolation(InternalVerificationFailed):
    """A levelwise theorem check failed on a tower; indicates a bug."""


def _internal(check, *args):
    """``check(*args)``, a proof of something the package computed
    itself.  Any PcaError it raises is a program fault and is re-raised as
    InternalVerificationFailed, naming the check."""
    try:
        return check(*args)
    except InternalVerificationFailed:
        raise
    except PcaError as exc:
        raise InternalVerificationFailed(
            f"{check.__qualname__}: {exc.args[0]}") from exc
