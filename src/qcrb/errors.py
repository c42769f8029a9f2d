"""Exception types used across the package."""


class QcrbError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QcrbError):
    """Operands have incompatible shapes."""


class NoConvergence(QcrbError):
    """LAPACK reported that a factorization did not converge."""


class DegeneracyUnresolved(QcrbError):
    """Joint diagonalization left a member off-diagonal, or equal eigenvalues spread too wide."""


class OutOfDomain(QcrbError):
    """Parameter point lies outside the model's open box (or its margin)."""


class UsageError(QcrbError):
    """The command line does not parse (argparse rejected it)."""


class ParseError(QcrbError):
    """An input (config file, data file or command-line value) is malformed or out of range."""


class UnknownModel(QcrbError):
    """Model name not present in the registry."""


class StencilIncomplete(QcrbError):
    """A stencil file is missing one of its 2p+1 required points."""


class InvalidState(QcrbError):
    """A density matrix violates hermiticity, positivity or unit trace."""


class IllDeterminedRank(QcrbError):
    """The spectrum of rho has no clear gap at the rank threshold."""


class RankDrift(QcrbError):
    """The null-null block of a state derivative is not zero: the rank varies."""


class NoFactorization(QcrbError):
    """The operation needs a model-supplied spectral factorization."""


class NotUnitary(QcrbError):
    """A candidate matrix fails the unitarity gate."""


class ConditionFailed(QcrbError):
    """Preconditions for constructing an optimal measurement do not hold."""


class NotBlockDiagonal(QcrbError):
    """A regular effect has a range/null cross block; it cannot be canonical."""


class NegativeProbability(QcrbError):
    """An outcome probability is negative beyond tolerance."""


class SingularFisher(QcrbError):
    """The classical Fisher matrix cannot be inverted; some direction is unidentifiable."""

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction


class InvalidPovm(QcrbError):
    """Effects are not PSD within tolerance or do not sum to the identity."""
