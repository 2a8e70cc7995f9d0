"""Exception hierarchy shared across the package.

Errors with their own constructor arguments rebuild from those arguments
when unpickled (__reduce__) and then take back their instance __dict__,
so an error raised in a worker process reaches the caller with the same
type, fields, message and notes (the worker's traceback).
"""


class RsmfgError(Exception):
    """Base class for all package errors."""


class NonFiniteState(RsmfgError):
    """An integrator or simulator produced a non-finite or exploding state."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"non-finite or exploding state at t={t:.6g}")

    def __reduce__(self):
        return type(self), (self.t, str(self)), self.__dict__


class FiniteEscape(RsmfgError):
    """The Riccati solution blows up before reaching t=0.

    Signals that no solution exists on the full horizon for these
    parameters (risk loading too large).
    """

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"Riccati finite escape detected near t={t:.6g}")

    def __reduce__(self):
        return type(self), (self.t, str(self)), self.__dict__


class OutOfRange(RsmfgError):
    """A time query fell outside the trajectory's grid."""


class AssumptionViolated(RsmfgError):
    """A standing model assumption failed validation."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"assumption violated: {name}")

    def __reduce__(self):
        return type(self), (self.name,), self.__dict__


class DimensionMismatch(RsmfgError):
    """Matrix blocks do not conform."""


class NotConverged(RsmfgError):
    """The fixed-point iteration did not reach the tolerance."""

    def __init__(self, iterations, last_error):
        self.iterations = iterations
        self.last_error = last_error
        super().__init__(
            f"fixed point not converged after {iterations} iterations "
            f"(last error {last_error:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.iterations, self.last_error), self.__dict__


class ParseError(RsmfgError):
    """A configuration file is malformed or incomplete."""
