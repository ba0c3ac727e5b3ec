"""Exception types shared across the package.  The type sets the CLI's
exit code: 1 for a ConfigError (bad input), 2 for a RunAborted."""


class ConfigError(ValueError):
    """A configuration value violates a documented precondition."""


class RunAborted(RuntimeError):
    """A run stopped on a numerical failure."""


class MeanZeroViolation(ConfigError):
    """An operator that needs mean-zero input saw a nonzero mean."""

    def __init__(self, mean, message=None):
        self.mean = mean
        super().__init__(message or f"field is not mean-zero (mean = {mean!r})")


class NonFiniteError(RunAborted):
    """A pointwise power or update produced inf/nan."""


class BlowupError(RunAborted):
    """Time stepping detected blowup; carries the offending step index."""

    def __init__(self, step_index, diagnostics=""):
        self.step_index = step_index
        self.diagnostics = diagnostics
        super().__init__(f"blowup detected at step {step_index}: {diagnostics}")


class SolitonResidualError(ConfigError):
    """Traveling-wave ansatz failed its residual gate (wrong constants)."""

    def __init__(self, residual, gate):
        self.residual = residual
        self.gate = gate
        super().__init__(f"soliton residual {residual:.3e} exceeds gate {gate:.1e}")


class ContractionFailureError(RunAborted):
    """Fixed-point iteration stopped contracting (window too long)."""

    def __init__(self, factors):
        self.factors = list(factors)
        super().__init__(f"iteration not contracting; successive ratios {self.factors}")


class QuadratureAccuracyError(RunAborted):
    """Oscillatory quadrature could not meet the requested tolerance."""

    def __init__(self, achieved, requested):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"achieved error bound {achieved:.3e} exceeds tolerance {requested:.1e}"
        )


class BoxTooSmallError(RunAborted):
    """Truncated (x, t) box leaves more than the allowed tail mass."""
