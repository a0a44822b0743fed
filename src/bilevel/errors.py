"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """A precondition on arguments or problem structure was violated."""


class CapabilityError(ContractViolationError):
    """A computation would exceed its size gate (FMD's sensitivity
    matrix) or a buffer it needs cannot be allocated (``core.allocate``:
    a run's trace, an example 3-4 instance's A and projector, RMD's
    trajectory, a dense matrix's copy buffers)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the contract requires finite reals."""


class SingularHessianError(NumericError):
    """Lower-level Hessian too ill-conditioned for a dense solve."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class ConvergenceError(RuntimeError):
    """An inner minimization failed to reach its tolerance within budget."""


class ConfigError(ValueError):
    """A run configuration file failed to parse or validate."""
