"""Recursive-descent parser for polynomial expressions.

Grammar: integers and rationals (``3``, ``-1/2``), declared variable names,
``+ - * ^ ( )`` with explicit ``*`` and non-negative integer exponents; a
power (and its exponent) or a product may have degree at most 64, and a number
at most 4300 digits.  ``zeta<m>`` is a reserved identifier denoting a primitive
m-th root of unity, m at most 64, so cyclotomic renderings round-trip.
Printing a polynomial within these limits and parsing it back is the identity.

One match first finds any character outside the grammar; then one scan reads the text
into a list of token strings, ``""`` marking the end, and a token's position is found
again only for an error.  Each term walks its factors in one loop: a variable, a number,
``zeta<m>`` or a parenthesised monomial, with its power, folds into one exponent list and
one coefficient, and the signs of unary minus are applied once, to the term.  Only a
parenthesised factor of several terms (or of none) switches the term to a dict of terms
multiplied by ``MultiPoly`` arithmetic, refused first when its result may have more than
``MAX_TERMS`` terms.  A sum adds its terms into one dict, and the result is built once,
by the ``MultiPoly`` constructor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add as _add

from .errors import ParseError
from .poly import MAX_EXPONENT, NAME, ZETA, MultiPoly, readable_vars
from .scalars import MAX_ORDER, zeta

_LEXEMES = rf"\d+(?:\s*/\s*\d+)?|{NAME.pattern}|[-+*^()]"  # a number, a name, an operator
_READABLE = re.compile(rf"(?:\s+|{_LEXEMES})*")  # ends at the first character of no token
_TOKEN = re.compile(_LEXEMES)  # whitespace between tokens is skipped

# Parentheses and unary minus nest; refuse deep nesting before Python's own
# recursion limit turns it into a crash (each parenthesis recurses).
_MAX_DEPTH = 100
# A product of sums of p and q terms has at most p*q terms, an n-th power of a sum of t
# terms at most C(n + t - 1, n): (x+y+z)^64 has 2145 and takes 0.2 s to expand,
# (a+b+c+d)^64 has 47,905 and took 20 s.  Powers and products are also limited to
# degree MAX_EXPONENT before they are expanded.
MAX_TERMS = 2500
# Python's own limit for int() of a decimal string, refused here with a position.
MAX_DIGITS = 4300


def _degree(p: dict) -> int:
    return max(map(sum, p), default=-1)  # -1 for zero


class _Parser:
    def __init__(self, text: str, variables):
        if (bad := _READABLE.match(text).end()) < len(text):
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        self.text, self.tokens, self.i, self.depth = text, _TOKEN.findall(text) + [""], 0, 0
        self.vars = readable_vars(variables)
        self.index = {v: j for j, v in enumerate(self.vars)}

    def error(self, message: str, i: int) -> ParseError:
        """The error at the i-th token (the end of the text past the last one)."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[i])

    # expr := term (('+'|'-') term)*, added into one dict
    def expr(self) -> dict:
        terms = {}
        self.term(terms, False)
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            self.term(terms, op == "-")
        return terms

    # term := factor ('*' factor)*; factor := '-' factor | atom ('^' non-negative-integer)?
    def term(self, terms: dict, neg: bool) -> None:
        """Add the product of one term's factors, negated when ``neg``, into ``terms``."""
        tokens, n = self.tokens, len(self.vars)
        exps, coef, deg, p = [0] * n, None, 0, None  # p: the product's terms once it has a dict
        while True:
            start = i = self.i
            while tokens[i] == "-":
                i += 1
            if self.depth + i - start >= _MAX_DEPTH:  # each minus nests a factor one deeper
                raise self.error(f"expression nested deeper than {_MAX_DEPTH} levels",
                                 start + _MAX_DEPTH - self.depth)
            neg ^= (i - start) & 1
            tok, self.i = tokens[i], i + 1
            # the factor: a * x^e of degree d (negative for zero), or its terms q
            a, e, d, q = 1, None, 0, None
            if (v := self.index.get(tok)) is not None:
                e, d = v, 1  # a variable by its index, its exponent d
            elif tok[:1].isdecimal():
                parts = tok.split("/")
                if len(tok) > MAX_DIGITS and any(len(s.strip()) > MAX_DIGITS for s in parts):
                    raise self.error(f"number has more than {MAX_DIGITS} digits", i)
                if len(parts) == 1:
                    a = int(tok)
                elif (den := int(parts[1])) == 0:
                    raise self.error("zero denominator", i)
                else:
                    a = Fraction(int(parts[0]), den)
                d = 0 if a else -1
            elif tok == "(":
                depth, self.depth = self.depth, self.depth + 1 + i - start
                q = self.expr()
                self.depth = depth
                if tokens[self.i] != ")":
                    raise self.error("expected ')'", self.i)
                self.i += 1
                if len(q) == 1:  # a monomial folds like the atoms
                    ((e, a),), q = q.items(), None
                    d = sum(e)
                else:
                    d = _degree(q)
            elif zm := ZETA.match(tok):
                if len(digits := zm.group(1)) > 2 or int(digits) > MAX_ORDER:
                    raise self.error(f"root of unity order exceeds the limit {MAX_ORDER}", i)
                a = zeta(int(digits))
            else:
                raise self.error(f"unknown identifier {tok!r}" if tok.isidentifier()
                                 else f"unexpected token {tok!r}" if tok
                                 else "unexpected end of input", i)
            if tokens[self.i] == "^":
                k = self.i + 1
                if not (t := tokens[k]).isdecimal():
                    raise self.error("exponent must be a non-negative integer", k)
                self.i = k + 1
                # all but the last two digits zero (of any script): no int() of a huge string
                m = None if len(t) > 2 and any(map(int, t[:-2])) else int(t[-2:])
                if m is None or m > MAX_EXPONENT or m * d > MAX_EXPONENT:
                    raise self.error(
                        f"power exceeds the exponent and degree limit {MAX_EXPONENT}", k)
                if q is not None:
                    if m > 1 and math.comb(m + len(q) - 1, m) > MAX_TERMS:  # products of m terms
                        raise self.error(f"power exceeds the term limit {MAX_TERMS}", k)
                    q = dict((MultiPoly(self.vars, q) ** m).sorted_terms())
                    d = _degree(q)
                else:
                    a, d = a ** m, d * m
                    if type(e) is tuple:
                        e = tuple(x * m for x in e)
            if deg + d > MAX_EXPONENT:  # never for the first factor, or with a zero
                raise self.error(f"product exceeds the degree limit {MAX_EXPONENT}", start - 1)
            if p and q and min(len(p), len(q)) > 1 and len(p) * len(q) > MAX_TERMS:
                raise self.error(f"product exceeds the term limit {MAX_TERMS}", start - 1)
            deg = -1 if deg < 0 or d < 0 else deg + d
            if q is None:  # a monomial folds into exps and coef
                if type(e) is int:
                    exps[e] += d
                elif e:
                    exps = list(map(_add, exps, e))
                if type(a) is not int or a != 1:  # int * Fraction is slow; skip it for 1
                    coef = a if coef is None else coef * a
            if q is not None or p is not None:  # with a dict, each factor multiplies in at once
                mono = {tuple(exps): 1 if coef is None else coef}  # before a dict, or the factor
                p = dict((MultiPoly(self.vars, mono if p is None else p)
                          * MultiPoly(self.vars, mono if q is None else q)).sorted_terms())
                exps, coef = [0] * n, None
            if tokens[self.i] != "*":
                break
            self.i += 1
        for e, c in ([(tuple(exps), 1 if coef is None else coef)] if p is None else p.items()):
            if neg:
                c = -c
            s = terms.get(e)
            terms[e] = c = c if s is None else s + c
            if not c:
                del terms[e]

    def parse(self) -> MultiPoly:
        terms = self.expr()
        if tok := self.tokens[self.i]:
            raise self.error(f"unexpected trailing token {tok!r}", self.i)
        return MultiPoly(self.vars, terms)


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse an expression over the declared variables into a polynomial."""
    return _Parser(text, variables).parse()
