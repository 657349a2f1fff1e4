"""Error hierarchy.

Every error carries a stable machine-readable ``signal`` string that the CLI
maps to exit code 1. Signals are part of the public contract; messages are not.
"""


class WittkitError(Exception):
    """Base class for all errors raised by this package."""

    signal = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InconsistentDescriptor(WittkitError):
    """A curve or surface descriptor violates one of its invariants."""

    signal = "inconsistent-descriptor"


class UnsupportedDivisibleMap(WittkitError):
    """A GroupMap was built with a divisible summand on its domain or codomain."""

    signal = "unsupported-divisible-map"


class ShapeMismatch(WittkitError):
    """Matrix dimensions do not match the declared domain/codomain generators."""

    signal = "shape-mismatch"


class MalformedPage(WittkitError):
    """A spectral-sequence page has differentials that violate its convention."""

    signal = "malformed-page"


class NoSuchTwist(WittkitError):
    """A nontrivial twist was requested where none exists (affine curves)."""

    signal = "no-such-twist"


class UnsupportedTwist(WittkitError):
    """A twist was requested for a space where twisted groups are out of contract."""

    signal = "unsupported-twist"


class TruncationError(WittkitError):
    """A graded product overflowed the ring's top degree and the ring forbids it."""

    signal = "truncation"


class RingMismatch(WittkitError):
    """Operands of a graded product live over different ring contexts."""

    signal = "ring-mismatch"


class DegreeOutOfRange(WittkitError):
    """A cohomological degree outside 0..2*dim was requested."""

    signal = "degree-out-of-range"


class UnknownName(WittkitError):
    """Catalog lookup with an unregistered name."""

    signal = "unknown-name"


class RenderParseError(WittkitError):
    """A group rendering string or a serialized report does not follow its grammar."""

    signal = "render-parse"


class InvariantViolation(WittkitError):
    """An internal cross-check failed: a computed group broke a proven invariant."""

    signal = "invariant-violation"
