"""Recursive-descent parser for polynomial expressions.

Grammar: integers and rationals (``3``, ``-1/2``), declared variable names,
``+ - * ^ ( )`` with explicit ``*`` and non-negative integer exponents; a
power (and its exponent) or a product may have degree at most 64, and a number
at most 4300 digits.  ``zeta<m>`` is a reserved identifier denoting a primitive
m-th root of unity, m at most 64, so cyclotomic renderings round-trip.
Printing a polynomial within these limits and parsing it back is the identity.

Every factor, product and sum is one dict of terms keyed by exponent tuple:
a chain of factors folds into one monomial and a sum adds its terms in place.
Only a product or power of a sum of several terms is expanded, by ``MultiPoly``
arithmetic, and refused first when its result may have more than ``MAX_TERMS``
terms.  The result is built once, by the ``MultiPoly`` constructor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add as _add

from .errors import ParseError
from .poly import MultiPoly
from .scalars import MAX_ORDER, zeta

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
    r"|(?P<bad>.)", re.S
)

_ZETA = re.compile(r"zeta([1-9][0-9]*)$")

# Parentheses and unary minus recurse; refuse deep nesting before Python's
# own recursion limit turns it into a crash.
_MAX_DEPTH = 100
# Powers and products are expanded eagerly; refuse large exponents and high
# degrees before the expansion can run for minutes.
MAX_EXPONENT = 64
# A product of sums of p and q terms has at most p*q terms, an n-th power of a sum of t
# terms at most C(n + t - 1, n): (x+y+z)^64 has 2145 and takes 0.2 s to expand,
# (a+b+c+d)^64 has 47,905 and took 20 s.
MAX_TERMS = 2500
# Python's own limit for int() of a decimal string, refused here with a position.
MAX_DIGITS = 4300


def _tokenize(text: str):
    """(kind, text, position) of each token, an operator being its own kind, then an end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if (kind := m.lastgroup) == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((m.group() if kind == "op" else kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _degree(p: dict) -> int:
    return max(map(sum, p), default=-1)  # -1 for zero


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
        self.one = (0,) * len(self.vars)
        self.units = {v: self.one[:i] + (1,) + self.one[i + 1:] for i, v in enumerate(self.vars)}

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, _, pos = self.peek()
        if kind != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.take()

    def at_op(self, *ops) -> bool:
        return self.tokens[self.i][0] in ops

    # expr := term (('+'|'-') term)*, added into the first term's dict
    def expr(self) -> dict:
        terms = self.term()
        while self.at_op("+", "-"):
            q = self.term() if self.take()[1] == "+" else {e: -c for e, c in self.term().items()}
            for e, c in q.items():
                s = terms.get(e)
                terms[e] = c = c if s is None else s + c
                if not c:
                    del terms[e]
        return terms

    # term := factor ('*' factor)*
    def term(self) -> dict:
        p = self.factor()
        while self.at_op("*"):
            pos = self.take()[2]
            q = self.factor()
            if len(p) == 1 == len(q):  # two monomials fold into one, kept in p
                (e, c), (f, d) = p.popitem(), q.popitem()
                p[e := tuple(map(_add, e, f))] = c if type(d) is int and d == 1 else c * d
                if sum(e) <= MAX_EXPONENT:
                    continue
            elif _degree(p) + _degree(q) <= MAX_EXPONENT:  # at most 63 when one factor is zero
                if min(len(p), len(q)) > 1 and len(p) * len(q) > MAX_TERMS:
                    raise ParseError(f"product exceeds the term limit {MAX_TERMS}", pos)
                p = dict((MultiPoly(self.vars, p) * MultiPoly(self.vars, q)).sorted_terms())
                continue
            raise ParseError(f"product exceeds the degree limit {MAX_EXPONENT}", pos)
        return p

    # factor := '-' factor | power
    def factor(self) -> dict:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", self.peek()[2])
        if self.at_op("-"):
            self.take()
            p = {e: -c for e, c in self.factor().items()}
        else:
            p = self.power()
        self.depth -= 1
        return p

    # power := atom ('^' non-negative-integer)?
    def power(self) -> dict:
        p = self.atom()
        if self.at_op("^"):
            self.take()
            kind, text, pos = self.peek()
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a non-negative integer", pos)
            self.take()
            n = int(text) if len(text.lstrip("0")) <= 2 else None  # no int() of a huge string
            if n is None or n > MAX_EXPONENT or n * _degree(p) > MAX_EXPONENT:
                raise ParseError(f"power exceeds the exponent and degree limit {MAX_EXPONENT}",
                                 pos)
            if len(p) == 1:
                e, c = p.popitem()
                p[tuple(x * n for x in e)] = c ** n
                return p
            if n > 1 and math.comb(n + len(p) - 1, n) > MAX_TERMS:  # products of n of its terms
                raise ParseError(f"power exceeds the term limit {MAX_TERMS}", pos)
            return dict((MultiPoly(self.vars, p) ** n).sorted_terms())
        return p

    def atom(self) -> dict:
        kind, text, pos = self.take()
        if kind == "number":
            parts = text.split("/")
            if any(len(part.strip()) > MAX_DIGITS for part in parts):
                raise ParseError(f"number has more than {MAX_DIGITS} digits", pos)
            if len(parts) == 1:
                c = int(text)
            elif (den := int(parts[1])) == 0:
                raise ParseError("zero denominator", pos)
            else:
                c = Fraction(int(parts[0]), den)
            return {self.one: c} if c else {}
        if kind == "name":
            if (unit := self.units.get(text)) is not None:
                return {unit: 1}
            if zm := _ZETA.match(text):
                digits = zm.group(1)
                if len(digits) > 2 or int(digits) > MAX_ORDER:
                    raise ParseError(f"root of unity order exceeds the limit {MAX_ORDER}", pos)
                return {self.one: zeta(int(digits))}
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def parse(self) -> MultiPoly:
        terms = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {text!r}", pos)
        return MultiPoly(self.vars, terms)


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse an expression over the declared variables into a polynomial."""
    return _Parser(text, variables).parse()
