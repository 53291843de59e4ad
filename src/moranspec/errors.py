"""Exception hierarchy shared across the package."""


class MoranError(Exception):
    """Base class for all package errors."""


class SingularMatrix(MoranError):
    """Matrix inversion requested for a matrix with determinant zero."""


class DimensionMismatch(MoranError):
    """Operands do not live in the same ambient dimension."""


class SizeMismatch(MoranError):
    """Digit and label sets must have equal cardinality."""


class ModelViolation(MoranError):
    """Input falls outside the prime-cardinality digit-set model."""


class CongruenceViolation(MoranError):
    """Supplied replacement sets are not congruent to the originals."""


class NoAdmissibleDirection(MoranError):
    """No zero direction at the given level satisfies the divisibility test."""

    def __init__(self, level, message=None):
        self.level = level
        super().__init__(message or f"level {level} has no admissible direction")


class PairVerificationFailed(MoranError):
    """A constructed pair failed its exact certificate."""

    def __init__(self, block, witness=None, message=None):
        self.block = block
        self.witness = witness
        super().__init__(message or f"pair verification failed for block {block}")


class CollisionDetected(MoranError):
    """Spectrum-level sums were not pairwise distinct (construction bug)."""


class ContainmentViolation(MoranError):
    """Rescaled spectrum level left its certified box (construction bug)."""


class DeterminantViolation(MoranError):
    """Planar digit-set classifier requires determinant +-1."""


class CapExceeded(MoranError):
    """Requested enumeration would exceed the configured element cap."""


class IoFailure(MoranError):
    """File emission failed."""


class ValidationFailure(MoranError):
    """System description violates a structural condition.

    ``code`` is machine readable: one of "expansion", "contraction",
    "digit-count", "primality", "zero-structure", "params", "format".
    """

    def __init__(self, code, message, where=None):
        self.code = code
        self.where = where
        super().__init__(message)
