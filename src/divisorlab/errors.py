"""Exception hierarchy shared by all divisorlab modules."""


class DivisorLabError(Exception):
    """Base class for all divisorlab errors."""


class DomainError(DivisorLabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapacityError(DivisorLabError, ValueError):
    """Requested size exceeds a documented cap (sieve limit, integer width)."""


class PrecisionError(DivisorLabError, ValueError):
    """Working precision below the supported minimum."""


class PoleError(DivisorLabError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole."""


class HeightRangeError(DivisorLabError, ValueError):
    """Imaginary part beyond the configured evaluation cap."""


class ZeroFileParseError(DivisorLabError, ValueError):
    """Malformed zero-ordinate file; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ZeroDataError(DivisorLabError, ValueError):
    """Structurally valid file with unusable content (empty, out of range)."""


class StaleCacheError(DivisorLabError, ValueError):
    """Coefficient cache does not match the source zero table digest."""


class ContourError(DivisorLabError, ArithmeticError):
    """Contour placement inconsistent with the enclosed-pole assumption."""


class QuadratureError(DivisorLabError, ArithmeticError):
    """The Gauss-Kronrod gap or bound on a straight edge, or the nested
    trapezoid levels on a circle, failed to confirm convergence."""


class ConventionError(DivisorLabError, ValueError):
    """Evaluation point violates the half-integer convention."""
