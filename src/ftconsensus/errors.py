"""Exception types shared across the toolkit."""


class FtConsensusError(Exception):
    """Base class for all toolkit errors."""


class NotStronglyConnected(FtConsensusError):
    """Operation requires a strongly connected digraph."""


class NotSymmetric(FtConsensusError):
    """Matrix is not symmetric within tolerance."""


class WrongProtocolKind(FtConsensusError):
    """Closed-form constants requested for the wrong protocol family."""


class ProtocolDomainError(FtConsensusError):
    """Antiderivative is nonpositive at a nonzero point (invalid protocol)."""


class NonFiniteState(FtConsensusError):
    """Simulation state became non-finite (step size too large)."""


class RecordBudgetExceeded(FtConsensusError):
    """A run would record more state values than ``dynamics.MAX_RECORD_VALUES``."""


class InvalidConstants(FtConsensusError):
    """Certificate constants out of range (alpha not in (0,1) or beta <= 0)."""


class DegenerateInput(FtConsensusError):
    """Matrix fails the positive-semidefiniteness the estimator relies on."""


class ZeroCoupling(FtConsensusError):
    """Follower stage has no arcs from its converged parents."""


class ConfigParseError(FtConsensusError):
    """Config document is not well-formed."""


class ConfigValidationError(FtConsensusError):
    """Config document is well-formed but violates the schema constraints."""
