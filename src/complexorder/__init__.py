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

The package namespace is the public names of its modules, each listed
once in its module's ``__all__``, plus ``__version__``.
"""

from . import closed_form, errors, evaluation, functions, operators, quadrature, special
from .closed_form import *
from .errors import *
from .evaluation import *
from .functions import *
from .operators import *
from .quadrature import *
from .special import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (closed_form, errors, evaluation, functions, operators, quadrature, special)
    for name in module.__all__
] + ["__version__"]
