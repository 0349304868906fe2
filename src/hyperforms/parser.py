"""Recursive-descent parser for polynomial expressions.

Grammar: integers and rationals (``3``, ``-1/2``), declared variable names,
``+ - * ^ ( )`` with explicit ``*`` and non-negative integer exponents; a
power may have exponent and degree at most 64, and a number at most 4300 digits.
``zeta<m>`` is a reserved identifier denoting a primitive m-th root of
unity, m at most 64, so cyclotomic renderings round-trip.  Printing a
polynomial within these limits and parsing it back is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import MultiPoly
from .scalars import MAX_ORDER, zeta

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
)

_ZETA = re.compile(r"zeta([1-9][0-9]*)$")

# Parentheses and unary minus recurse; refuse deep nesting before Python's
# own recursion limit turns it into a crash.
_MAX_DEPTH = 100
# Powers are expanded eagerly; refuse large exponents and high-degree powers
# before the expansion can run for minutes.
_MAX_EXPONENT = 64
# Python's own limit for int() of a decimal string, refused here with a position.
_MAX_DIGITS = 4300


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable names in {self.vars}")
        for v in self.vars:
            if _ZETA.match(v):
                raise ValueError(f"variable name {v!r} is reserved for roots of unity")

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.take()

    def at_op(self, *ops) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    # expr := term (('+'|'-') term)*
    def expr(self) -> MultiPoly:
        p = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    # term := factor ('*' factor)*
    def term(self) -> MultiPoly:
        p = self.factor()
        while self.at_op("*"):
            self.take()
            p = p * self.factor()
        return p

    # factor := '-' factor | power
    def factor(self) -> MultiPoly:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", self.peek()[2])
        if self.at_op("-"):
            self.take()
            p = -self.factor()
        else:
            p = self.power()
        self.depth -= 1
        return p

    # power := atom ('^' non-negative-integer)?
    def power(self) -> MultiPoly:
        p = self.atom()
        if self.at_op("^"):
            self.take()
            kind, text, pos = self.peek()
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a non-negative integer", pos)
            self.take()
            n = int(text) if len(text.lstrip("0")) <= 2 else None  # no int() of a huge string
            if n is None or n > _MAX_EXPONENT or n * p.total_degree() > _MAX_EXPONENT:
                raise ParseError(f"power exceeds the exponent and degree limit {_MAX_EXPONENT}",
                                 pos)
            return p ** n
        return p

    def atom(self) -> MultiPoly:
        kind, text, pos = self.take()
        if kind == "number":
            parts = text.split("/")
            if any(len(part.strip()) > _MAX_DIGITS for part in parts):
                raise ParseError(f"number has more than {_MAX_DIGITS} digits", pos)
            if len(parts) == 1:
                return MultiPoly.constant(int(text), self.vars)
            num, den = map(int, parts)
            if den == 0:
                raise ParseError("zero denominator", pos)
            return MultiPoly.constant(Fraction(num, den), self.vars)
        if kind == "name":
            if text in self.vars:
                return MultiPoly.variable(text, self.vars)
            zm = _ZETA.match(text)
            if zm:
                digits = zm.group(1)
                if len(digits) > 2 or int(digits) > MAX_ORDER:
                    raise ParseError(f"root of unity order exceeds the limit {MAX_ORDER}", pos)
                return MultiPoly.constant(zeta(int(digits)), self.vars)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def parse(self) -> MultiPoly:
        p = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {text!r}", pos)
        return p


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse an expression over the declared variables into a polynomial."""
    return _Parser(text, variables).parse()
