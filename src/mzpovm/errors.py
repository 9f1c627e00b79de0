"""Exception hierarchy shared by every module of the toolkit."""


class MzPovmError(Exception):
    """Base class for all toolkit errors."""


class NotNormalized(MzPovmError):
    """A vector that must be unit length is not."""


class NotHermitian(MzPovmError):
    """An operator that must be Hermitian is not."""


class BlochOutOfBall(MzPovmError):
    """A Bloch vector lies outside the unit ball."""


class DimensionMismatch(MzPovmError):
    """Operands have incompatible dimensions."""


class InvalidStochasticMatrix(MzPovmError):
    """A smearing matrix has negative entries or non-unit column sums."""


class NotTwoOutcome(MzPovmError):
    """An operation defined for two-outcome POVMs got something else."""


class NotSharp(MzPovmError):
    """An operation requiring projection-valued input got an unsharp POVM."""


class InvalidBasis(MzPovmError):
    """A vector family is not an orthonormal basis."""


class NotAProjection(MzPovmError):
    """An operator that must be a (nontrivial) projection is not."""


class UnsupportedExperiment(MzPovmError):
    """The experiment kind is unknown or outside an operation's domain."""


class InvalidScheme(MzPovmError):
    """A measurement scheme violates its structural invariants."""


class ZeroProbabilityCondition(MzPovmError):
    """Conditioning on an outcome of (numerically) zero probability."""
