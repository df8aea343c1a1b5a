"""Exception types raised across the library."""


class QsatError(Exception):
    """Base class for all library errors."""


class ValidationError(QsatError):
    """An instance, or a construction built from one, fails its invariants."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CapacityError(QsatError):
    """The requested computation exceeds a configured size limit."""


class ArgumentError(QsatError, ValueError):
    """A malformed argument (bad arity, index collision, out of range)."""


class DimensionMismatchError(QsatError):
    """Operands act on different qubit counts."""


class ConvergenceError(QsatError):
    """The iterative eigensolver did not converge; carries the best iterate."""

    def __init__(self, message, best_lambda0=None, best_vector=None):
        super().__init__(message)
        self.best_lambda0 = best_lambda0
        self.best_vector = best_vector


class PreconditionError(QsatError):
    """An operation's stated precondition does not hold for the input."""


class IndeterminateError(QsatError):
    """A solver verdict landed in the indeterminate band where a definite
    answer is required."""


class ParseError(QsatError):
    """An instance file is malformed; carries a location description."""

    def __init__(self, message, location=None):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
