"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Integral values are stored as ``int`` and other rationals as
``fractions.Fraction``.  Roots of unity live in :class:`Cyclotomic`, a residue
vector modulo the m-th cyclotomic polynomial whose integral entries are
``int`` too.  Arithmetic never leaves exact representations and never yields
a ``float``; any cyclotomic value that reduces to a rational is demoted to a
``Fraction``.  The one dense division is by a monic integer divisor: it
builds Phi_m and reduces modulo it.  Inverses come from the field norm.
:func:`render` writes the canonical text of polynomials and cyclotomic values alike.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

RATIONAL_TYPES = (int, Fraction)
MAX_ORDER = 64  # the largest order of zeta(m); Cyclotomic.inverse slows beyond it


def as_rational(x):
    """``x`` itself when it is an ``int`` or a ``Fraction``; TypeError otherwise."""
    if isinstance(x, RATIONAL_TYPES):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


def canonical(q):
    """An integral Fraction as its int numerator; anything else unchanged."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def exact_quotient(a, b):
    """a / b with an integral quotient as a plain ``int``, never a ``float``: two ``int``
    instances (``bool`` too) go through divmod, anything else through its own division."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canonical(a / b)


def _dense_mul(a: tuple, b: tuple) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _dense_divmod_monic(num: list, den: tuple) -> tuple[list, list]:
    """Quotient and remainder of dense division of ``num`` (overwritten) by a monic
    divisor; the remainder has exactly deg(den) entries, trailing zeros as ``int``."""
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + dn]
        if c:
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    rem = num[:dn]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem + [0] * (dn - len(rem))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (constant first) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _dense_divmod_monic(num, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(num)


def power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Cyclotomic:
    """Element of the field obtained by adjoining a primitive m-th root of unity.

    Stored as a coefficient vector of length deg(Phi_m) over the rationals,
    with integral entries as ``int``, reduced modulo Phi_m.  Values whose
    vector is constant are never constructed; :func:`_make` demotes them to
    ``Fraction``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int | Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(order: int, coeffs: list):
        cs = [canonical(c) for c in _dense_divmod_monic(coeffs, cyclotomic_polynomial(order))[1]]
        if not any(cs[1:]):
            return Fraction(cs[0])
        return Cyclotomic(order, tuple(cs))

    def _embed(self, other):
        if isinstance(other, RATIONAL_TYPES):
            deg = len(self.coeffs)
            return Cyclotomic(self.order, (canonical(other),) + (0,) * (deg - 1))
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        # a sum of reduced vectors is reduced: no division by Phi_m, only _make's demotion
        if isinstance(other, RATIONAL_TYPES):  # a constant never cancels zeta, so no demotion
            return Cyclotomic(self.order, (canonical(self.coeffs[0] + other),) + self.coeffs[1:])
        o = self._embed(other)
        if o is None:
            return NotImplemented
        cs = [canonical(a + b) for a, b in zip(self.coeffs, o.coeffs)]
        return Cyclotomic(self.order, tuple(cs)) if any(cs[1:]) else Fraction(cs[0])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._embed(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, RATIONAL_TYPES) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                return Fraction(0)
            return Cyclotomic(self.order, tuple(canonical(c * other) for c in self.coeffs))
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self._make(self.order, _dense_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic | Fraction":
        """Multiplicative inverse from the field norm: a^-1 = prod_k sigma_k(a) / N(a).

        sigma_k maps zeta to zeta^k for the units k != 1 mod m, and
        N(a) = a * prod_k sigma_k(a) is rational.  Denominators are cleared
        first, so the conjugates are multiplied over the integers.
        """
        m = self.order
        den = math.lcm(*(c.denominator for c in self.coeffs))
        a = self * den
        conj = Fraction(1)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                cs = [0] * m
                for e, c in enumerate(a.coeffs):
                    cs[k * e % m] = c
                conj = conj * self._make(m, cs)
        return conj * Fraction(den, a * conj)

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return Cyclotomic(self.order, tuple(exact_quotient(c, other) for c in self.coeffs))
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other if isinstance(other, RATIONAL_TYPES) else NotImplemented

    def __pow__(self, n: int):
        n = operator.index(n)
        return power(self.inverse() if n < 0 else self, abs(n), Fraction(1))

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return False  # rationals are always demoted, so never equal
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {self.coeffs})"

    def __str__(self) -> str:
        return render([(c, ((f"zeta{self.order}", e),)) for e, c in enumerate(self.coeffs) if c])


def render(terms) -> str:
    """The canonical text of a sum of terms ``(c, ((name, exponent), ...))``, in order:
    ``c*v*w^x`` with zero exponents and a coefficient of 1 before a monomial left out,
    a :class:`Cyclotomic` coefficient parenthesised.  A term whose coefficient text starts
    with ``-`` joins as `` - `` (leads as ``-``), any other as `` + ``; the empty sum is ``0``.
    """
    out = []
    for c, mono in terms:
        text = f"({c})" if isinstance(c, Cyclotomic) else str(c)
        sign, text = (" - ", text[1:]) if text[0] == "-" else (" + ", text)
        if m := "*".join([v if x == 1 else f"{v}^{x}" for v, x in mono if x]):
            text = m if text == "1" else f"{text}*{m}"
        out += sign, text
    if out:
        out[0] = "-" if out[0] == " - " else ""
    return "".join(out) or "0"


@lru_cache(maxsize=None)  # at most MAX_ORDER values, all immutable
def zeta(m: int):
    """A primitive m-th root of unity (a plain rational for m = 1, 2), m <= MAX_ORDER."""
    if m > MAX_ORDER:
        raise ValueError(f"root of unity order exceeds the limit {MAX_ORDER}")
    return Cyclotomic._make(m, [0, 1])


def scalar_pow(x, n: int):
    """x**n for rational or cyclotomic x, n possibly negative."""
    n = operator.index(n)
    if isinstance(x, Cyclotomic):
        return x ** n
    return Fraction(as_rational(x)) ** n
