"""Exact operator action on power functions via Gamma-ratio coefficients.

On a power term (x - x0)^p the operators of complex order act
multiplicatively, by one rule in the signed order sigma (J^sigma = D^-sigma,
so J^s is sigma = s and D^s is sigma = -s):

    J^sigma: (x-x0)^p  ->  Gamma(p+1)/Gamma(p+sigma+1) * (x-x0)^(p+sigma)

The coefficient is formed in log space; a pole in the denominator
Gamma yields an exactly zero coefficient, which is how D^2 annihilates x.
With x0 = -inf the only closed form available is e^x, an eigenfunction of
every order: Euler's integral Gamma(s) = int_0^inf t^(s-1) e^-t dt gives
J^s e^x = e^x for Re(s) > 0, hence D^s e^x = D^k J^(k-s) e^x = e^x.
"""

from __future__ import annotations

from .errors import DomainError, MismatchError
from .functions import CausalFunction, PowerTerm
from .operators import OperatorExpr, normalize
from .special import gamma_ratio

__all__ = ["apply_closed", "power_image"]


def power_image(p: complex, sigma: complex) -> tuple[complex, complex]:
    """Coefficient Gamma(p+1)/Gamma(p+sigma+1) and exponent p+sigma of
    J^sigma = D^-sigma applied to the power p, for every complex sigma.

    Requires Re(p) > -1 (integrability at the lower endpoint).  The
    coefficient is exactly 0 when p + sigma + 1 hits a Gamma pole.
    """
    p, sigma = complex(p), complex(sigma)
    if p.real <= -1.0:
        raise DomainError(f"a power term needs Re(p) > -1, got p = {p!r}")
    return gamma_ratio(p + 1.0, p + sigma + 1.0), p + sigma


def apply_closed(expr: OperatorExpr, f: CausalFunction) -> CausalFunction:
    """Apply a normalized operator chain to a symbolic function, exactly.

    The chain collapses to its net order sigma first (the composition laws
    hold exactly on the power-function class), then each term maps through
    a single Gamma-ratio coefficient and the e^x term maps to itself.
    """
    if expr.lower_limit != f.lower_limit:
        raise MismatchError(
            f"operator lower limit {expr.lower_limit!r} != function lower limit {f.lower_limit!r}"
        )
    sigma = normalize(expr).sigma
    if sigma == 0:
        return f
    new_terms = []
    for term in f.terms:
        coef, exponent = power_image(term.exponent, sigma)
        new_terms.append(PowerTerm(term.coef * coef, exponent))
    return CausalFunction(terms=tuple(new_terms), exp_coef=f.exp_coef, lower_limit=f.lower_limit)
