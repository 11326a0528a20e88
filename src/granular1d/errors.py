"""Exception types shared across the package."""


class Granular1dError(Exception):
    """Base class for all package errors."""


class EmptyMeasureError(Granular1dError):
    """Raised when a density has zero total mass."""


class InvariantViolation(Granular1dError):
    """A state failed one of the structural invariants (monotonicity,
    feasibility, sign of the adhesion potential, ...).

    Attributes:
        check: short name of the violated check.
        value: measured magnitude of the violation.
        t, step: simulated time and step index of the failing state,
            when known.
        index: the first particle or gap that fails the check, or None
            when no single one does.
    """

    def __init__(self, check: str, value: float, message: str = "",
                 t: float | None = None, step: int | None = None, index: int | None = None):
        self.check = check
        self.value = value
        self.t = t
        self.step = step
        self.index = index
        super().__init__(message or f"invariant '{check}' violated (magnitude {value:.3e})")


class OracleLimitError(Granular1dError):
    """Raised when the enumeration oracle is asked for a problem too large."""


class ConvergenceError(Granular1dError):
    """Fixed-point iteration failed to reach its tolerance.

    Carries the last residual so callers can report it.
    """

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"fixed-point iteration did not converge after {iterations} sweeps "
            f"(last residual {residual:.3e})"
        )
