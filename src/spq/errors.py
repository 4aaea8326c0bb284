"""Exception hierarchy shared across the package."""


class SpqError(Exception):
    """Base class for all errors raised by this package."""


class ResourceCapExceeded(SpqError):
    """A configured size or work cap would be exceeded."""


class NotAGroup(SpqError):
    """A multiplication table violates the group axioms.

    For associativity failures ``witness`` holds a triple (a, b, c) with
    (a*b)*c != a*(b*c); for identity or inverse failures it holds the
    offending element index.
    """

    def __init__(self, reason: str, witness=None):
        if witness is not None:
            reason = f"{reason} (witness: {witness})"
        super().__init__(reason)
        self.witness = witness


class OrderCapExceeded(ResourceCapExceeded):
    """Group order above the configured cap."""


class InvalidPermutation(SpqError):
    """A generator is not a permutation of the stated degree."""


class UnknownSpec(SpqError):
    """A group or G-set spec string does not match the grammar."""


class NotASubgroupInclusion(SpqError):
    """An operation required H <= K inside one parent group."""


class NotNormal(SpqError):
    """Quotient requested by a non-normal subgroup."""


class ProductCapExceeded(ResourceCapExceeded):
    """|G| * |K|, or the number of generator-image tuples to try, above the
    configured cap for homomorphism search."""


class ChainNotInSubgroup(SpqError):
    """Transfer input does not live over the stated subgroup."""


class FiltrationViolation(SpqError):
    """A pulled-back chain would leave the requested filtration level."""


class ChainNotEndingAtTop(SpqError):
    """The operation requires a chain whose top subgroup is the full group."""


class NotAComplex(SpqError):
    """Boundary matrices fail d² = 0; ``column`` names a witness column."""

    def __init__(self, reason: str, column=None):
        if column is not None:
            reason = f"{reason} (witness column: {column})"
        super().__init__(reason)
        self.column = column


class BasisCapExceeded(ResourceCapExceeded):
    """A chain basis grew beyond the configured cap."""


class SizeCapExceeded(ResourceCapExceeded):
    """A G-set or poset is larger than the configured cap."""


class InvariantViolation(SpqError):
    """A mathematical identity that guards a computed result failed to hold."""
