"""Operator chains and their normalization.

A chain like D^(0.5).J^(1+1i) is a sequence of integral (J) and derivative
(D) stages applied right to left, all sharing one lower limit.  Because the
composition laws add orders, any chain collapses to a single net signed
order sigma = sum of J orders minus sum of D orders, and J^sigma = D^-sigma
names the operator for every complex sigma.  sigma = 0 is the identity and
Re(sigma) > 0 an integral; any other sigma is a derivative of order -sigma,
realized through k-fold ordinary differentiation of a (k + sigma)-order
integral with k = choose_k(-sigma), so that Re(k + sigma) > 0.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from ._parsing import TokenStream, parse_complex, tokenize
from .errors import DomainError, ParseError

__all__ = [
    "NetOperator",
    "OperatorExpr",
    "OperatorStage",
    "OpKind",
    "choose_k",
    "normalize",
    "parse_operator",
]


class OpKind(enum.Enum):
    INTEGRAL = "J"
    DERIVATIVE = "D"


class OperatorStage(namedtuple("OperatorStage", "kind order")):
    """One J^order or D^order application.

    J^0 is the explicit identity stage; D^0 is rejected.
    """

    __slots__ = ()

    def __new__(cls, kind: OpKind, order: complex):
        order = complex(order)
        if not (math.isfinite(order.real) and math.isfinite(order.imag)):
            raise DomainError(f"stage order must be finite, got {order!r}")
        if kind is OpKind.DERIVATIVE and order == 0:
            raise DomainError("D^0 is not a stage; use J^0 for the identity")
        return super().__new__(cls, kind, order)


class OperatorExpr(namedtuple("OperatorExpr", "stages lower_limit")):
    """Ordered stages (applied right to left) with a shared lower limit."""

    __slots__ = ()

    def __new__(cls, stages: tuple[OperatorStage, ...], lower_limit: float = 0.0):
        stages, lower_limit = tuple(stages), float(lower_limit)
        if math.isnan(lower_limit) or lower_limit == math.inf:
            raise DomainError(f"lower limit must be finite or -inf, got {lower_limit!r}")
        return super().__new__(cls, stages, lower_limit)


class NetOperator(namedtuple("NetOperator", "sigma")):
    """Collapsed form of a chain: its net signed order sigma (J^sigma)."""

    __slots__ = ()


def choose_k(s: complex) -> int:
    """Smallest practical integer k with k > Re(s): floor(Re(s)) + 1.

    For a net derivative of order s (Re(s) >= 0) this guarantees
    Re(k - s) > 0, so the inner integral is defined.
    """
    s = complex(s)
    return int(math.floor(s.real)) + 1


def normalize(expr: OperatorExpr) -> NetOperator:
    """Collapse a chain to its net operator.

    The net order adds commutatively, so the result is invariant under
    permuting stages or splitting one stage into two whose orders sum to it.
    """
    sigma = 0j
    for stage in expr.stages:
        if stage.kind is OpKind.INTEGRAL:
            sigma += stage.order
        else:
            sigma -= stage.order
    return NetOperator(sigma)


def parse_operator(text: str, lower_limit: float = 0.0) -> OperatorExpr:
    """Parse a chain like "D^(0.5).J^(1+1i)" (stages separated by '.')."""
    stream = TokenStream(tokenize(text))
    stages: list[OperatorStage] = []
    while True:
        tok = stream.expect("name", "'J' or 'D'")
        if tok.text == "J":
            kind = OpKind.INTEGRAL
        elif tok.text == "D":
            kind = OpKind.DERIVATIVE
        else:
            raise ParseError(tok.offset, "'J' or 'D'")
        stream.expect("^", "'^'")
        order = parse_complex(stream)
        stages.append(OperatorStage(kind=kind, order=order))
        if stream.peek().kind == ".":
            stream.next()
            continue
        stream.expect_end()
        break
    return OperatorExpr(stages=tuple(stages), lower_limit=lower_limit)
