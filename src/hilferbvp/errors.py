"""Exception types shared across the package."""


class HilferError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HilferError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma function evaluated at (or too close to) a non-positive integer."""


class ParseError(HilferError):
    """Expression source text could not be parsed.

    Attributes:
        offset: character offset into the source where parsing failed.
        expected: short description of what would have been accepted.
    """

    def __init__(self, message, offset, expected=None):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = expected


class EvalError(HilferError):
    """Expression evaluation hit a domain violation (log of a negative
    number, division by zero, ...) instead of silently propagating NaN.

    Attributes:
        pos: character offset of the offending node in the original source,
             or -1 for programmatically built trees. A pos >= 0 is named at
             the end of str(exc), as " (offset N)"; args[0] is the message
             without it.
        index: in an error of a compiled pass (expr.compile_expr), the
             index of the first point where the tree fails; else None.
    """

    index = None

    def __init__(self, message, pos=-1):
        super().__init__(message)
        self.pos = pos

    def __str__(self):
        message = super().__str__()
        return f"{message} (offset {self.pos})" if self.pos >= 0 else message


class SingularProblemError(HilferError):
    """The nonlocal problem is degenerate: c + d is (numerically) equal to
    the aggregation constant A, so the equivalent integral equation has no
    well-defined initial coefficient."""


class NoConvergenceError(HilferError):
    """Fixed-point iteration exhausted its iteration budget.

    The partial result is attached as ``report`` for diagnostics: the
    SolveReport of the last iterate from solver.solve_picard, and the
    last iterate's WeightedGrid from solver.solve_volterra_ivp.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InadmissibleExponentError(HilferError):
    """A Lebesgue/Hoelder exponent violates the positivity conditions needed
    for the existence constants to be finite."""


class SchemaError(HilferError):
    """A problem file failed validation.

    Attributes:
        key: dotted path of the offending key, e.g. ``nonlocal[0].tau``.
    """

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


class MeshMismatchError(HilferError):
    """An externally supplied solution table does not match the problem mesh."""
