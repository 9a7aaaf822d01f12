"""Shared tokenizer and complex-literal parser for the text grammars.

Both the function grammar ("(2+0i)*x^(0.5) + exp(x)") and the operator
chain grammar ("D^(0.5).J^(1+1i)") build on the same complex-number
literal:

    complex := "(" float [ ("+"|"-") float "i" ] ")" | float

Floats are unsigned decimal literals with optional exponent notation; a
sign in front of a float is consumed where the grammar position allows it.
Whitespace between tokens is insignificant.  Offsets reported in errors
are byte offsets into the original text (the grammar is pure ASCII).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ParseError

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z]+")
_SYMBOLS = "+-*^()."


class Token(namedtuple("Token", "kind text offset")):
    # kind: "number", "name", one of _SYMBOLS, or "end"
    __slots__ = ()


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"a token, found {ch!r}")
    tokens.append(Token("end", "", n))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, expected)
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.offset, "end of input")


def _float(stream: TokenStream) -> float:
    sign = 1.0
    if stream.peek().kind in "+-":
        sign = -1.0 if stream.next().kind == "-" else 1.0
    tok = stream.expect("number", "a number")
    return sign * float(tok.text)


def parse_complex(stream: TokenStream) -> complex:
    """Parse a complex literal: parenthesized re[+|-im i] or a bare float."""
    tok = stream.peek()
    if tok.kind == "(":
        stream.next()
        re_part = _float(stream)
        im_part = 0.0
        nxt = stream.peek()
        if nxt.kind in "+-":
            sign = -1.0 if stream.next().kind == "-" else 1.0
            mag = stream.expect("number", "a number").text
            name = stream.expect("name", "'i'")
            if name.text != "i":
                raise ParseError(name.offset, "'i'")
            im_part = sign * float(mag)
        stream.expect(")", "')'")
        return complex(re_part, im_part)
    if tok.kind in "+-" or tok.kind == "number":
        return complex(_float(stream), 0.0)
    raise ParseError(tok.offset, "a complex number")
