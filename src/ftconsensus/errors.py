"""Exception types shared across the toolkit."""


class FtConsensusError(Exception):
    """Base class for all toolkit errors."""


class NotStronglyConnected(FtConsensusError):
    """Operation requires a strongly connected digraph."""


class ProtocolDomainError(FtConsensusError):
    """The argument bound M (``check-protocol``'s ``--bound``, or ``certify``'s
    ||L||_inf ||x0||_inf) is out of range for a protocol: too large where f(M)^2 or
    F(M) overflows a float, too small where f^2 or F leaves the normal float range
    on the ratio grid."""


class NonFiniteState(FtConsensusError):
    """Simulation state became non-finite (step size too large)."""


class RecordBudgetExceeded(FtConsensusError):
    """A run would record more state values than ``dynamics.MAX_RECORD_VALUES``."""


class InvalidConstants(FtConsensusError):
    """Certificate constants out of range: alpha not in (0, 1), beta <= 0 or C1 <= 0,
    or a t* that overflows a float."""


class DegenerateInput(FtConsensusError):
    """Matrix fails the positive-semidefiniteness the estimator relies on."""


class ZeroCoupling(FtConsensusError):
    """Follower stage has no arcs from its converged parents."""


class ConfigParseError(FtConsensusError):
    """Config document is not well-formed."""


class ConfigValidationError(FtConsensusError):
    """Config document is well-formed but violates the schema constraints."""
