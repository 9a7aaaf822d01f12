"""Complex-order integrals and derivatives of causal functions.

The package implements the operator J^s (integral of complex order s) and
its left inverse D^s (derivative of complex order s) for functions that
vanish at and below a lower limit x0, with two interchangeable backends:

* exact Gamma-ratio closed forms on sums of complex-exponent power terms
  (and on e^x with x0 = -inf, an eigenfunction of every order), and
* singular-kernel product quadrature for arbitrary integrands, built on a
  complex-argument Lanczos Gamma engine and stable modified Chebyshev
  moments.

An operator-algebra layer collapses chains like D^(0.5).J^(1+1i) to their
net order before evaluation, and a small text grammar plus CLI front end
(`complexorder eval`, `complexorder selftest`) expose grids and
closed-vs-numeric comparisons.
"""

from .closed_form import apply_closed, power_image
from .errors import (
    ComplexOrderError,
    ConvergenceError,
    DomainError,
    MismatchError,
    ParseError,
    PoleError,
    UnsupportedError,
)
from .evaluation import EvalResult, EvalStatus, Method, apply
from .functions import (
    CausalFunction,
    OpaqueFunction,
    PowerTerm,
    parse_function,
)
from .operators import (
    NetOperator,
    OperatorExpr,
    OperatorStage,
    OpKind,
    choose_k,
    normalize,
    parse_operator,
)
from .quadrature import (
    QuadConfig,
    differentiate_numeric,
    integrate_exp_lower_inf,
    integrate_numeric,
)
from .special import beta, complex_pow, gamma, gamma_ratio, is_near_pole, log_gamma

__version__ = "0.1.0"

__all__ = [
    "CausalFunction",
    "ComplexOrderError",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "EvalStatus",
    "Method",
    "MismatchError",
    "NetOperator",
    "OpKind",
    "OpaqueFunction",
    "OperatorExpr",
    "OperatorStage",
    "ParseError",
    "PoleError",
    "PowerTerm",
    "QuadConfig",
    "UnsupportedError",
    "apply",
    "apply_closed",
    "beta",
    "choose_k",
    "complex_pow",
    "differentiate_numeric",
    "gamma",
    "gamma_ratio",
    "integrate_exp_lower_inf",
    "integrate_numeric",
    "is_near_pole",
    "log_gamma",
    "normalize",
    "parse_function",
    "parse_operator",
    "power_image",
    "__version__",
]
