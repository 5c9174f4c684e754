"""Exception types shared across the package."""


class InfoBalanceError(ValueError):
    """Base class for every domain error raised by this package."""


class InvalidState(InfoBalanceError):
    """A density-operator invariant (Hermiticity, positivity, trace) failed."""


class DuplicateLabel(InfoBalanceError):
    """Subsystem names collided where they must be unique."""


class UnknownLabel(InfoBalanceError):
    """A subsystem name was requested that the state does not carry."""


class LabelOverlap(InfoBalanceError):
    """Label groups that must be disjoint share a name."""


class NotSquare(InfoBalanceError):
    """A square matrix was required."""


class NegativeEigenvalue(InfoBalanceError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class DimensionMismatch(InfoBalanceError):
    """Operator or state dimensions are incompatible."""


class DimensionTooSmall(InfoBalanceError):
    """Requested dimensions cannot accommodate an isometry."""


class UnknownOutcome(InfoBalanceError):
    """An outcome label is not part of the instrument."""


class ZeroProbabilityOutcome(InfoBalanceError):
    """A conditional quantity was requested for an outcome of probability ~0."""


class InvalidInstrument(InfoBalanceError):
    """The instrument violates trace preservation, complete positivity, or dims."""


class InvalidPovm(InfoBalanceError):
    """POVM elements are not positive or do not sum to the identity."""


class NotIsometry(InfoBalanceError):
    """A matrix expected to satisfy V†V = 1 does not."""


class MissingOutcome(InfoBalanceError):
    """A recovery family does not cover an outcome that carries probability."""


class BadDistribution(InfoBalanceError):
    """A probability vector or joint table is malformed."""


class ParseError(InfoBalanceError):
    """Serialized input or an argument is malformed or violates a declared invariant."""


class NumericalInconsistency(InfoBalanceError):
    """Two computation routes that must agree disagreed beyond tolerance."""
