"""Grid evaluation: route an operator chain to the closed or numeric backend.

Per-point failures are isolated: a point that cannot be evaluated gets an
error status in its row instead of aborting the rest of the grid.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple
from typing import Sequence

from . import closed_form as _closed
from . import quadrature as _quad
from .errors import ConvergenceError, DomainError, MismatchError, UnsupportedError
from .functions import CausalFunction, OpaqueFunction
from .operators import OperatorExpr, choose_k, normalize
from .special import complex_pow

__all__ = ["EvalResult", "EvalStatus", "Method", "apply"]

class Method(enum.Enum):
    CLOSED = "closed"
    NUMERIC = "numeric"
    BOTH = "both"


class EvalStatus(enum.Enum):
    OK = "ok"
    CONVERGENCE_ERROR = "convergence_error"
    DOMAIN_ERROR = "domain_error"


class EvalResult(
    namedtuple(
        "EvalResult",
        "x value reference abs_err rel_err status",
        defaults=(None, None, None, EvalStatus.OK),
    )
):
    """One grid point: numeric (or closed) value, optional reference, errors."""

    __slots__ = ()


# Failures confined to one grid point, which gets their status and no value:
# a best estimate is that of one term or inner integral, not the point's
# value, and an overflow (e^x past x = 709.78, or a non-finite value) is a
# domain error.
_POINT_FAILURES = (ConvergenceError, DomainError, OverflowError)


def _status_of(exc: Exception) -> EvalStatus:
    if isinstance(exc, ConvergenceError):
        return EvalStatus.CONVERGENCE_ERROR
    return EvalStatus.DOMAIN_ERROR


def _attempt(at, x: float) -> tuple[complex | None, EvalStatus | None]:
    """``(at(x), None)``, or ``(None, status)`` when the point fails.

    A value with an infinite or nan part is a domain error too: an overflow
    inside a product, e.g. c e^x near x = 709, yields these silently.
    """
    try:
        value = at(x)
    except _POINT_FAILURES as exc:
        return None, _status_of(exc)
    if not cmath.isfinite(value):
        return None, EvalStatus.DOMAIN_ERROR
    return value, None


def _raising(exc: Exception, before=None):
    """An evaluator that raises ``exc`` at every point, after ``before(x)``."""

    def at(x: float) -> complex:
        if before is not None:
            before(x)
        raise exc.with_traceback(None)  # a fresh traceback, not one grown per point

    return at


def _numeric_evaluator(sigma: complex, f, cfg: _quad.QuadConfig):
    """``x -> value`` of J^sigma f from the numeric backend.  The route depends
    on the request, not on the point, so it is chosen here, once per ``apply``
    call: sigma = 0 is the identity, Re(sigma) > 0 an integral, and any other
    sigma a derivative of order -sigma, taken from a Chebyshev expansion
    for an opaque integrand and as D^k J^(k+sigma) otherwise."""
    if sigma == 0:
        return f
    k = 0 if sigma.real > 0 else choose_k(-sigma)
    x0 = f.lower_limit
    if isinstance(f, OpaqueFunction):
        if k:
            # Its Chebyshev expansion on [x0, x], each term mapped by its
            # continued moment, point by point.
            return lambda x: _quad.chebyshev_derivative(f, -sigma, x, x0, cfg)
        return lambda x: _quad.integrate_numeric(f, sigma, x, x0, cfg)
    if not math.isfinite(x0):
        # Pure exponential with lower limit -inf: the integral of order
        # k + sigma (k = 0 for an integral) is e^x times its value at 0,
        # one quadrature for the grid, and D^k leaves e^x unchanged.
        coef = f.exp_coef
        if coef == 0:
            return lambda x: 0j
        try:
            at_zero = _quad.integrate_exp_lower_inf(sigma + k, 0.0, cfg)
        except _POINT_FAILURES as exc:
            return _raising(exc, before=math.exp)  # an overflow stays the point's own
        return lambda x: coef * math.exp(x) * at_zero
    # Each power term declares its exponent, so its singularity at x0 is
    # integrated exactly.
    terms = [
        (lambda y, _c=t.coef, _p=t.exponent: _c * complex_pow(y - x0, _p), t.exponent)
        for t in f.terms
    ]

    def power_sum(x: float) -> complex:
        total = 0j
        for g, p in terms:
            if k == 0:
                total += _quad.integrate_numeric(g, sigma, x, x0, cfg, singular_exponent=p)
            else:
                total += _quad.differentiate_numeric(g, -sigma, x, x0, k, cfg, singular_exponent=p)
        return total

    return power_sum


def apply(
    expr: OperatorExpr,
    f: CausalFunction | OpaqueFunction,
    xs: Sequence[float],
    method: Method | str = Method.BOTH,
    cfg: _quad.QuadConfig | None = None,
) -> list[EvalResult]:
    """Evaluate the operator chain applied to ``f`` at every point of ``xs``.

    ``closed`` evaluates the exact Gamma-ratio image (CausalFunction only),
    ``numeric`` runs the quadrature backend, ``both`` runs the two and
    reports the numeric value against the closed reference with absolute
    and relative errors.
    """
    method = Method(method)
    if cfg is None:
        cfg = _quad.QuadConfig()
    if expr.lower_limit != f.lower_limit:
        raise MismatchError(
            f"operator lower limit {expr.lower_limit!r} != function lower limit {f.lower_limit!r}"
        )
    if method is not Method.NUMERIC and not isinstance(f, CausalFunction):
        raise UnsupportedError("closed-form evaluation needs a CausalFunction")

    closed_at = numeric_at = None
    if method is not Method.NUMERIC:
        try:
            closed_at = _closed.apply_closed(expr, f)
        except DomainError as exc:
            closed_at = _raising(exc)
    if method is not Method.CLOSED:
        numeric_at = _numeric_evaluator(normalize(expr).sigma, f, cfg)

    results: list[EvalResult] = []
    for x in xs:
        x = float(x)
        if not x > f.lower_limit:
            results.append(EvalResult(x, None, status=EvalStatus.DOMAIN_ERROR))
            continue
        reference, ref_status = _attempt(closed_at, x) if closed_at is not None else (None, None)
        if numeric_at is None:
            results.append(EvalResult(x, reference, status=ref_status or EvalStatus.OK))
            continue
        value, num_status = _attempt(numeric_at, x)
        abs_err = rel_err = None
        if value is not None and reference is not None:
            abs_err = abs(value - reference)
            # A zero reference has no relative error; abs_err carries it.
            rel_err = abs_err / abs(reference) if reference != 0 else None
        status = num_status or ref_status or EvalStatus.OK
        results.append(EvalResult(x, value, reference, abs_err, rel_err, status))
    return results
