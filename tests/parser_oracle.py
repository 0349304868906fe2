"""Oracle for ``hyperforms.parser``: the recursive descent that builds a
``MultiPoly`` for every token.

Every number, variable and ``zeta<m>`` is a ``MultiPoly.constant`` or
``MultiPoly.variable``, every ``*`` a ``MultiPoly`` product, every ``+`` a
``MultiPoly`` sum and every ``^`` a ``MultiPoly`` power.  It keeps the same
grammar, limits, messages and positions as the parser, with its own tokenizer
and its own statement of the limits, so a property can compare the two on any
string.
"""

from __future__ import annotations

import re
import unicodedata
from fractions import Fraction
from math import factorial

from hyperforms.errors import ParseError
from hyperforms.poly import MultiPoly
from hyperforms.scalars import MAX_ORDER, zeta

# the parser's limits, restated so that a wrong one there shows as a difference
_MAX_DEPTH = 100
MAX_EXPONENT = 64
MAX_TERMS = 2500
MAX_DIGITS = 4300

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
)

_ZETA = re.compile(r"zeta([1-9][0-9]*)$")


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
            _, _, pos = self.take()
            q = self.factor()
            degree = p.total_degree() + q.total_degree()
            if degree > MAX_EXPONENT:
                raise ParseError(f"product exceeds the degree limit {MAX_EXPONENT}", pos)
            if len(p.terms) > 1 and len(q.terms) > 1 and len(p.terms) * len(q.terms) > MAX_TERMS:
                raise ParseError(f"product exceeds the term limit {MAX_TERMS}", pos)
            p = p * q
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
            # leading zeros of any decimal script count for nothing; no int() of a huge string
            digits = text.lstrip("".join(ch for ch in text if unicodedata.decimal(ch) == 0))
            n = int(digits or "0") if len(digits) <= 2 else None
            if n is None or n > MAX_EXPONENT or n * p.total_degree() > MAX_EXPONENT:
                raise ParseError(f"power exceeds the exponent and degree limit {MAX_EXPONENT}",
                                 pos)
            t = len(p.terms)  # p^n has at most as many terms as t symbols have degree-n monomials
            bound = factorial(n + t - 1) // factorial(n) // factorial(t - 1) if t else 0
            if n > 1 and bound > MAX_TERMS:
                raise ParseError(f"power exceeds the term limit {MAX_TERMS}", pos)
            return p ** n
        return p

    def atom(self) -> MultiPoly:
        kind, text, pos = self.take()
        if kind == "number":
            parts = text.split("/")
            if any(len(part.strip()) > MAX_DIGITS for part in parts):
                raise ParseError(f"number has more than {MAX_DIGITS} digits", pos)
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
    """Parse an expression over the declared variables, one ``MultiPoly`` per token."""
    return _Parser(text, variables).parse()
