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
from .operators import Branch, OperatorExpr, normalize
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
    UNSUPPORTED = "unsupported"


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
_POINT_FAILURES = (ConvergenceError, DomainError, UnsupportedError, OverflowError)


def _status_of(exc: Exception) -> EvalStatus:
    if isinstance(exc, ConvergenceError):
        return EvalStatus.CONVERGENCE_ERROR
    if isinstance(exc, UnsupportedError):
        return EvalStatus.UNSUPPORTED
    return EvalStatus.DOMAIN_ERROR


def _finite(z: complex) -> complex:
    """``z``, or DomainError when a part of it is inf or nan (an overflow
    inside a product, e.g. c e^x near x = 709, yields these silently)."""
    if not cmath.isfinite(z):
        raise DomainError(f"value {z!r} is not finite")
    return z


def _numeric_point(net, f, x: float, cfg: _quad.QuadConfig, exp_integral) -> complex:
    x0 = f.lower_limit
    if net.branch is Branch.IDENTITY:
        return complex(f(x))

    if isinstance(f, CausalFunction):
        if not math.isfinite(x0):
            # Pure exponential with lower limit -inf: e^x times the grid's
            # ``exp_integral`` (see ``apply``), and D^k leaves e^x unchanged.
            if f.exp_coef == 0:
                return 0j
            scaled = f.exp_coef * math.exp(x)  # an overflow is this point's own
            if isinstance(exp_integral, Exception):
                raise exp_integral.with_traceback(None)
            return scaled * exp_integral
        # Each power term declares its exponent, so its singularity at x0
        # is integrated exactly.
        parts = [
            (lambda y, _c=t.coef, _p=t.exponent: _c * complex_pow(y - x0, _p), t.exponent)
            for t in f.terms
        ]
    else:
        # Opaque handle: no structural information to exploit.
        parts = [(f, None)]

    total = 0j
    for g, p in parts:
        if net.k == 0:
            total += _quad.integrate_numeric(g, net.sigma, x, x0, cfg, singular_exponent=p)
        else:
            total += _quad.differentiate_numeric(
                g, -net.sigma, x, x0, net.k, cfg, singular_exponent=p
            )
    return total


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

    net = normalize(expr)

    closed_image: CausalFunction | None = None
    closed_failure: Exception | None = None
    if method is not Method.NUMERIC:
        try:
            closed_image = _closed.apply_closed(expr, f)
        except (DomainError, UnsupportedError) as exc:
            closed_failure = exc

    # e^x from -inf: the integral of order k + sigma (k = 0 on the integrate
    # branch) is e^x times its value at 0, one quadrature for the whole grid;
    # if it fails, its exception is each point's.
    exp_integral: complex | Exception | None = None
    if (
        method is not Method.CLOSED
        and net.branch is not Branch.IDENTITY
        and isinstance(f, CausalFunction)
        and f.exp_coef != 0
    ):
        try:
            exp_integral = _quad.integrate_exp_lower_inf(net.sigma + net.k, 0.0, cfg)
        except _POINT_FAILURES as exc:
            exp_integral = exc

    results: list[EvalResult] = []
    for x in xs:
        x = float(x)
        if not x > f.lower_limit:
            results.append(
                EvalResult(x=x, value=None, status=EvalStatus.DOMAIN_ERROR)
            )
            continue

        reference: complex | None = None
        ref_status: EvalStatus | None = None
        if method is not Method.NUMERIC:
            if closed_failure is not None:
                ref_status = _status_of(closed_failure)
            else:
                try:
                    reference = _finite(closed_image(x))
                except _POINT_FAILURES as exc:
                    ref_status = _status_of(exc)

        if method is Method.CLOSED:
            results.append(
                EvalResult(
                    x=x,
                    value=reference,
                    status=EvalStatus.OK if ref_status is None else ref_status,
                )
            )
            continue

        value: complex | None = None
        num_status: EvalStatus | None = None
        try:
            value = _finite(_numeric_point(net, f, x, cfg, exp_integral))
        except _POINT_FAILURES as exc:
            num_status = _status_of(exc)

        abs_err = rel_err = None
        if value is not None and reference is not None:
            abs_err = abs(value - reference)
            # A zero reference has no relative error; abs_err carries it.
            rel_err = abs_err / abs(reference) if reference != 0 else None
        status = num_status or ref_status or EvalStatus.OK
        results.append(
            EvalResult(
                x=x,
                value=value,
                reference=reference,
                abs_err=abs_err,
                rel_err=rel_err,
                status=status,
            )
        )
    return results
