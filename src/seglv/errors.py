"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid domain geometry, or a grid too coarse to resolve it."""


class DomainMismatchError(ValueError):
    """Operands live on different grid domains."""


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class NonlinearSolveError(RuntimeError):
    """Newton iteration failed; carries the last iterate and residual history."""

    def __init__(self, message, last_iterate=None, residual_history=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_history = list(residual_history or [])


class EigenSolveError(RuntimeError):
    """Eigenvalue solve did not reach the requested residual."""


class PhiUnavailable(RuntimeError):
    """No positive global profile: growth rate is at or below the domain's
    principal eigenvalue, so only the trivial state exists."""


class NDFailure(RuntimeError):
    """A baseline state failed the nondegeneracy margin check."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name and the partial summary."""

    def __init__(self, stage, message, summary=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.summary = summary
