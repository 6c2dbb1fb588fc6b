"""Exception taxonomy for the hamlq package.

Every anticipated numerical failure raises a typed exception so callers
(and the CLI exit-code mapping) can distinguish bad input, violated
operational assumptions, and plain non-convergence.
"""


class HamlqError(Exception):
    """Base class for all hamlq-specific errors."""


class SingularMatrix(HamlqError):
    """A linear solve met a pivot below the configured zero threshold."""


class ConvergenceFailure(HamlqError):
    """An iterative kernel exhausted its iteration budget."""


class NotStabilizable(HamlqError):
    """No stabilizing feedback could be certified for the given system."""


class SingularWeight(HamlqError):
    """The innovation weight D'D + B'PB is not strictly positive definite."""


class NotStable(HamlqError):
    """Smith iteration diverged: the iterated matrix is not discrete-stable.

    The sequence of update norms is attached as ``trace`` for diagnosis.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class BoundaryInconsistent(HamlqError):
    """The two-point boundary system has no solution within tolerance."""
