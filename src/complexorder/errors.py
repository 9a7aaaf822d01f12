"""Exception types shared across the package."""

__all__ = [
    "ComplexOrderError",
    "ConvergenceError",
    "DomainError",
    "MismatchError",
    "ParseError",
    "PoleError",
    "UnsupportedError",
]


class ComplexOrderError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ComplexOrderError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation was requested at, or too close to, a pole of Gamma."""


class ParseError(ComplexOrderError, ValueError):
    """Input text does not conform to the expression grammar.

    Carries the byte offset of the failure and a description of what was
    expected there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected}")


class MismatchError(ComplexOrderError, ValueError):
    """Operands disagree structurally, e.g. on their lower limits."""


class UnsupportedError(ComplexOrderError):
    """The requested case has no defined result in this library."""


class ConvergenceError(ComplexOrderError):
    """The quadrature tolerance was not met within the degree budget.

    ``best_estimate`` holds the estimate whose successive agreement was
    best (None when no size resolved the integrand, so that nothing could
    be compared), ``achieved_rel_err`` the agreement it reached.
    """

    def __init__(self, message: str, best_estimate: complex | None, achieved_rel_err: float):
        self.best_estimate = best_estimate
        self.achieved_rel_err = achieved_rel_err
        super().__init__(message)
