"""Exception types shared across the package."""

from __future__ import annotations


class CrossedProductError(Exception):
    """Base class for all library errors."""


class InvalidTableError(CrossedProductError):
    """A multiplication table is not a group table.

    Carries the first failing check and the witnessing indices.
    """

    def __init__(self, reason: str, witness: tuple[int, ...]):
        self.reason = reason
        self.witness = witness
        super().__init__(f"invalid table: {reason} at {witness}")


class InvalidDescriptorError(CrossedProductError):
    """A group descriptor string could not be parsed."""


class CapExceededError(CrossedProductError):
    """A configured size cap would be exceeded."""


class NotNormalError(CrossedProductError):
    """A subgroup required to be normal is not."""


class AxiomViolationError(CrossedProductError):
    """A crossed-system axiom fails; carries the first failing tuple."""

    def __init__(self, equation: str, witness: tuple[int, ...]):
        self.equation = equation
        self.witness = witness
        super().__init__(f"axiom {equation} fails at {witness}")


class ActionNotHomomorphismError(CrossedProductError):
    """A semidirect construction was given a non-multiplicative action."""


class CocycleNotCentralError(CrossedProductError):
    """A twisted construction was given a cocycle not valued in the center."""


class CocycleConditionError(CrossedProductError):
    """A classical 2-cocycle identity fails."""


class PairInvariantViolationError(CrossedProductError):
    """A universal-property pair object violates its compatibility law."""


class QuadrupleConditionError(CrossedProductError):
    """A morphism quadruple fails one of its five conditions."""

    def __init__(self, index: int, witness: tuple[int, ...]):
        self.index = index
        self.witness = witness
        super().__init__(f"quadruple condition {index} fails at {witness}")


class SectionInvalidError(CrossedProductError):
    """A map claimed to be a unit-preserving section is not."""


class NotAbelianError(CrossedProductError):
    """An operation restricted to abelian groups was given a non-abelian one."""


class InternalInvariantError(CrossedProductError):
    """Two independent computations of one result disagree: a library bug."""
