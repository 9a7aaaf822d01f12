"""Models of the functions the operators act on.

A :class:`CausalFunction` is a finite sum of complex-exponent power terms,
plus optionally a multiple of e^x, that vanishes identically at and below
its lower limit x0.  For a finite lower limit the power terms are powers of
the shifted variable (x - x0), which keeps integration and differentiation
exact under translation; with x0 = 0 the terms are literal powers of x.
The exponential term is only representable with x0 = -inf (the only lower
limit for which e^x is causal-compatible), and then no power terms are
allowed.

:class:`OpaqueFunction` wraps an arbitrary callable for numeric-only paths.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from ._parsing import TokenStream, parse_complex, tokenize
from .errors import DomainError, ParseError
from .special import complex_pow

__all__ = [
    "CausalFunction",
    "OpaqueFunction",
    "PowerTerm",
    "parse_function",
]

#: Exponents equal to within this tolerance (componentwise) are merged.
EXPONENT_MERGE_TOL = 1e-12


class PowerTerm(namedtuple("PowerTerm", "coef exponent")):
    """One term coef * (x - x0)^exponent.

    Re(exponent) > -1 is required whenever the term is fed to an integral
    operator; the check happens at the operator boundary, not here, so that
    differentiation results (which may leave that class) stay representable.
    """

    __slots__ = ()

    def __new__(cls, coef: complex, exponent: complex):
        coef = complex(coef)
        exponent = complex(exponent)
        for name, z in (("coef", coef), ("exponent", exponent)):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DomainError(f"PowerTerm {name} must be finite, got {z!r}")
        return super().__new__(cls, coef, exponent)


def _merge_terms(terms) -> tuple[PowerTerm, ...]:
    ordered = sorted(
        (PowerTerm(t.coef, t.exponent) for t in terms),
        key=lambda t: (t.exponent.real, t.exponent.imag),
    )
    merged: list[PowerTerm] = []
    for term in ordered:
        if merged:
            prev = merged[-1]
            if (
                abs(term.exponent.real - prev.exponent.real) <= EXPONENT_MERGE_TOL
                and abs(term.exponent.imag - prev.exponent.imag) <= EXPONENT_MERGE_TOL
            ):
                merged[-1] = PowerTerm(prev.coef + term.coef, prev.exponent)
                continue
        merged.append(term)
    return tuple(t for t in merged if t.coef != 0)


class CausalFunction(namedtuple("CausalFunction", "terms exp_coef lower_limit")):
    """Sum of power terms in (x - lower_limit), plus exp_coef * e^x.

    Instances canonicalize on construction: terms are sorted by
    (Re, Im) of the exponent, near-equal exponents merge, and zero
    coefficients are dropped, so structural equality is meaningful.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple = (), exp_coef: complex = 0j, lower_limit: float = 0.0):
        terms = _merge_terms(terms)
        exp_coef = complex(exp_coef)
        lower_limit = float(lower_limit)
        if math.isnan(lower_limit) or lower_limit == math.inf:
            raise DomainError(f"lower limit must be finite or -inf, got {lower_limit!r}")
        if math.isfinite(lower_limit):
            if exp_coef != 0:
                raise DomainError("an exp(x) term requires lower limit -inf")
        elif terms:
            raise DomainError("power terms require a finite lower limit")
        return super().__new__(cls, terms, exp_coef, lower_limit)

    def __call__(self, x: float) -> complex:
        """Evaluate at ``x``; exactly 0 for x <= a finite lower limit."""
        x = float(x)
        x0 = self.lower_limit
        if math.isfinite(x0):
            if x < x0:
                return 0j
            if x == x0:
                if any(t.exponent.real < 0 for t in self.terms):
                    raise DomainError(f"unbounded at the lower limit x = {x0!r}")
                return 0j
            xi = x - x0
            return sum((t.coef * complex_pow(xi, t.exponent) for t in self.terms), 0j)
        if self.exp_coef == 0:
            return 0j  # the zero function, also where e^x overflows
        return self.exp_coef * math.exp(x)

    def render(self) -> str:
        """Canonical grammar text; ``parse_function`` round-trips it."""
        parts = [f"{_render_complex(t.coef)}*x^{_render_complex(t.exponent)}" for t in self.terms]
        if self.exp_coef != 0:
            parts.append(f"{_render_complex(self.exp_coef)}*exp(x)")
        if not parts:
            return "(0.0+0.0i)*x^(0.0+0.0i)"
        return " + ".join(parts)


class OpaqueFunction(namedtuple("OpaqueFunction", "fn lower_limit")):
    """A black-box integrand: the caller asserts causality and boundedness.

    ``fn`` must return 0 for x <= lower_limit, be bounded on every compact
    [lower_limit, x], and be safe to call concurrently.
    """

    __slots__ = ()

    def __new__(cls, fn: Callable[[float], complex], lower_limit: float = 0.0):
        lower_limit = float(lower_limit)
        if not math.isfinite(lower_limit):
            raise DomainError("an opaque function needs a finite lower limit")
        return super().__new__(cls, fn, lower_limit)

    def __call__(self, x: float) -> complex:
        return complex(self.fn(x))


def _render_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}i)"


def parse_function(text: str, lower_limit: float = 0.0) -> CausalFunction:
    """Parse grammar text into a :class:`CausalFunction`.

    Grammar::

        expr    := term { ("+" | "-") term }
        term    := [ complex "*" ] atom
        atom    := "x^" complex | "x" | "1" | "exp(x)"
        complex := "(" float [ ("+"|"-") float "i" ] ")" | float

    The lower limit is not part of the grammar and is supplied separately.
    """
    stream = TokenStream(tokenize(text))
    terms: list[PowerTerm] = []
    exp_coef = 0j

    first = True
    while True:
        sign = 1.0
        tok = stream.peek()
        if not first:
            if tok.kind == "end":
                break
            if tok.kind not in "+-":
                raise ParseError(tok.offset, "'+', '-' or end of input")
            sign = -1.0 if stream.next().kind == "-" else 1.0
        first = False
        coef, atom = _parse_term(stream)
        coef *= sign
        if atom == "exp":
            exp_coef += coef
        else:
            terms.append(PowerTerm(coef, atom))
    return CausalFunction(terms=tuple(terms), exp_coef=exp_coef, lower_limit=lower_limit)


def _parse_term(stream: TokenStream):
    """Returns (coefficient, exponent-or-"exp")."""
    tok = stream.peek()
    if tok.kind in ("number", "(", "+", "-"):
        value = parse_complex(stream)
        nxt = stream.peek()
        if nxt.kind == "*":
            stream.next()
            exponent = _parse_atom(stream)
            return value, exponent
        # Only the literal constant "1" may stand alone as an atom.
        if tok.kind == "number" and tok.text == "1" and value == 1:
            return 1 + 0j, 0j
        raise ParseError(nxt.offset, "'*' after a coefficient")
    return 1 + 0j, _parse_atom(stream)


def _parse_atom(stream: TokenStream):
    tok = stream.peek()
    if tok.kind == "number":
        if tok.text == "1":
            stream.next()
            return 0j
        raise ParseError(tok.offset, "'x', '1' or 'exp(x)'")
    if tok.kind == "name" and tok.text == "x":
        stream.next()
        if stream.peek().kind == "^":
            stream.next()
            return parse_complex(stream)
        return 1 + 0j
    if tok.kind == "name" and tok.text == "exp":
        stream.next()
        stream.expect("(", "'('")
        name = stream.expect("name", "'x'")
        if name.text != "x":
            raise ParseError(name.offset, "'x'")
        stream.expect(")", "')'")
        return "exp"
    raise ParseError(tok.offset, "'x', '1' or 'exp(x)'")
