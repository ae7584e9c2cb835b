"""Exception hierarchy for the padiczeta package.

Every failure mode that a caller can reasonably react to gets its own
class; all of them derive from :class:`PadicZetaError` so batch drivers
can catch the whole family at once.  `Frozen`, the base of the
package's immutable classes, lives here too: assigning to one of their
fields is an error, an AttributeError.
"""

from __future__ import annotations


class Frozen:
    """Base of the immutable classes: each field is set once, in __init__.

    A subclass lists its fields in __slots__ and sets them through
    object.__setattr__; any later assignment or deletion raises
    AttributeError.  The repr names the public fields in slot order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __repr__(self) -> str:
        public = (name for name in self.__slots__ if name[0] != "_")
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in public)
        return f"{type(self).__name__}({fields})"


class PadicZetaError(Exception):
    """Base class for all padiczeta errors."""


class BudgetExceeded(PadicZetaError):
    """An enumeration would visit more points than the configured budget."""


class ArgumentOutOfRange(PadicZetaError, ValueError):
    """An argument lies outside the range a computation is defined on.

    It is a ValueError too, so callers that catch the built-in still see it.
    """


class PolynomialSyntaxError(PadicZetaError):
    """Malformed polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableOutOfRange(PolynomialSyntaxError):
    """A variable index outside 1..n was used."""


class NegativeExponent(PolynomialSyntaxError):
    """An exponent literal was negative."""


class DimensionMismatch(PadicZetaError):
    """A point or matrix has the wrong number of coordinates."""


class ZeroPolynomial(PadicZetaError):
    """Operation undefined for the zero polynomial."""


class NonUnitArgument(PadicZetaError):
    """A multiplicative character was evaluated at a non-unit."""


class TrivialCharacter(PadicZetaError):
    """Gaussian sums are only defined for nontrivial characters."""


class EvenPrimeUnsupported(PadicZetaError):
    """Twisted-character machinery requires an odd prime."""


class ModulusTooLarge(PadicZetaError):
    """Character table modulus beyond the supported size."""


class RankDeficient(PadicZetaError):
    """Matrix rank over Q is smaller than required."""


class GoodReductionFailed(PadicZetaError):
    """A rescaled chart unexpectedly failed the good-reduction test.

    This indicates an internal inconsistency (or a center that is not on
    the variety); the full state is attached for inspection.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class CenterNotOnVariety(PadicZetaError):
    """Rescaling center does not satisfy the constraints to the required depth."""


class BadReductionInput(PadicZetaError):
    """Hensel enumeration called on a system without good reduction."""


class InvariantViolated(PadicZetaError):
    """A mathematical invariant that the algorithm guarantees did not hold.

    This indicates an internal inconsistency rather than a bad input; it
    is raised instead of an `assert`, which `python -O` would remove.
    """


class WalkInvariantError(InvariantViolated):
    """A lift-tree walk reached a node that breaks the tree's invariants.

    Either a node does not satisfy the constraints at its own level, or
    a walk had to descend past the level where it must have resolved.
    """


class NotStabilized(PadicZetaError):
    """A stabilization recount disagreed with the base count."""


class NoRecurrenceFound(PadicZetaError):
    """No linear recurrence fits the series within the provided depth."""


class ValidationFailed(PadicZetaError):
    """A fitted rational function failed to predict the held-out coefficients."""


class ConstantDenominator(PadicZetaError):
    """Pole analysis requested for a rational function without poles."""


class PoleSetMismatch(PadicZetaError):
    """Denominator has poles outside the candidate set (falsification signal)."""


class MissingTable(PadicZetaError):
    """A required twisted coefficient table is absent."""


class HypothesisNotVerified(PadicZetaError):
    """A finite-level probe found suspect critical residues."""


class SchemaError(PadicZetaError):
    """Problem specification file violates the JSON schema."""
