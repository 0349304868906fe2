"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Integral values are stored as ``int`` and other rationals as
``fractions.Fraction``.  Roots of unity live in :class:`Cyclotomic`, a residue
vector modulo the m-th cyclotomic polynomial whose integral entries are
``int`` too.  Arithmetic never leaves exact representations and never yields
a ``float``; any cyclotomic value that reduces to a rational is demoted to a
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

RATIONAL_TYPES = (int, Fraction)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def canonical(q):
    """An integral Fraction as its int numerator; anything else unchanged."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def exact_quotient(a, b):
    """a / b with an integral quotient as ``int``, never a ``float``: int/int
    goes through divmod, anything else through the operands' own division."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canonical(a / b)


def _dense_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _dense_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _dense_trim(out)


def _dense_rem_monic(num: list, den: list) -> list:
    """Remainder of dense polynomial division by a monic divisor."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1 - dn, -1, -1):
        c = num[i + dn]
        if c:
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    return _dense_trim(num[:dn])


def _dense_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over the rationals, ``den`` nonzero."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    _dense_trim(den)
    dn = len(den) - 1
    lc = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn] / lc
        quot[i] = c
        if c:
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    return _dense_trim(quot), _dense_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (constant first) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _dense_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
            num = quot
    return tuple(int(c) for c in num)


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
        phi = cyclotomic_polynomial(order)
        cs = [canonical(c) for c in coeffs]
        if len(cs) >= len(phi):
            cs = _dense_rem_monic(cs, list(phi))
        deg = len(phi) - 1
        cs = cs + [0] * (deg - len(cs))
        if not any(cs[1:]):
            return Fraction(cs[0] if cs else 0)
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
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self._make(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self._make(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                return Fraction(0)
            return Cyclotomic(self.order, tuple(canonical(c * other) for c in self.coeffs))
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self._make(self.order, _dense_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic | Fraction":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_m."""
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        t0, t1 = [], [Fraction(1)]
        while _dense_trim(r1):
            q, r = _dense_divmod(r0, r1)
            r0, r1 = r1, r
            qt = _dense_mul(q, t1)
            nt = [Fraction(0)] * max(len(t0), len(qt))
            for i, c in enumerate(t0):
                nt[i] += c
            for i, c in enumerate(qt):
                nt[i] -= c
            t0, t1 = t1, _dense_trim(nt)
        # r0 is now gcd = nonzero constant (Phi_m is irreducible)
        g = r0[0]
        return self._make(self.order, [exact_quotient(c, g) for c in t0])

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return Cyclotomic(self.order, tuple(exact_quotient(c, other) for c in self.coeffs))
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, n: int):
        base = self.inverse() if n < 0 else self
        n = abs(n)
        result = Fraction(1)
        while n:
            if n & 1:
                result = base * result
            n >>= 1
            if n:
                base = base * base  # may demote; Fraction handles the rest
        return result

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
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                mono = f"zeta{self.order}" if e == 1 else f"zeta{self.order}^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def zeta(m: int):
    """A primitive m-th root of unity (a plain rational for m = 1, 2)."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return Fraction(1)
    if m == 2:
        return Fraction(-1)
    return Cyclotomic._make(m, [0, 1])


def scalar_pow(x, n: int):
    """x**n for rational or cyclotomic x, n possibly negative."""
    if isinstance(x, Cyclotomic):
        return x ** n
    x = as_fraction(x)
    return x ** n
