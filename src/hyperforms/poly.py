"""Sparse multivariate polynomials over exact scalars.

A :class:`MultiPoly` is an ordered variable tuple plus a mapping from
exponent vectors to nonzero coefficients (rational or cyclotomic).  All
operations are pure and exact; instances are immutable by convention.
Canonical ordering of terms is graded lexicographic with respect to the
variable tuple, which makes equality structural and rendering canonical.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add as _add

from .errors import DomainError
from .scalars import Cyclotomic

COEFF_TYPES = (int, Fraction, Cyclotomic)


def _grlex(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _coerce_coeff(c):
    if isinstance(c, Fraction) or isinstance(c, Cyclotomic):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class MultiPoly:
    """Sparse polynomial in named variables with exact coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        tidy = {}
        n = len(vs)
        for exps, c in terms.items():
            e = tuple(exps)
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has wrong length for {vs}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = _coerce_coeff(c)
            if c:
                tidy[e] = c
        self.vars = vs
        self.terms = tidy

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        # internal fast path: terms already tidy for these variables
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables=()) -> "MultiPoly":
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, value, variables=()) -> "MultiPoly":
        vs = tuple(variables)
        c = _coerce_coeff(value)
        return cls._raw(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def variable(cls, name: str, variables=None) -> "MultiPoly":
        vs = tuple(variables) if variables is not None else (name,)
        exps = tuple(1 if v == name else 0 for v in vs)
        if name not in vs:
            raise ValueError(f"{name!r} not among variables {vs}")
        return cls._raw(vs, {exps: Fraction(1)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree_in(self, names) -> int:
        """Common degree of all terms in the given variables; error if mixed."""
        idx = [self.vars.index(v) for v in names]
        degs = {sum(e[i] for i in idx) for e in self.terms}
        if len(degs) > 1:
            raise DomainError(
                f"polynomial is not homogeneous in {tuple(names)}: degrees {sorted(degs)}")
        return degs.pop() if degs else -1

    def uses(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def as_scalar(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if not any(e):
                return c
        raise DomainError(f"not a constant polynomial: {self}")

    # -- variable plumbing ---------------------------------------------------

    def with_vars(self, variables) -> "MultiPoly":
        """Reindex onto a variable tuple that must cover every used variable."""
        vs = tuple(variables)
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.vars if v not in pos and self.uses(v)]
        if missing:
            raise ValueError(f"target variables {vs} drop used variables {missing}")
        n = len(vs)
        out = {}
        src = [pos.get(v) for v in self.vars]
        for e, c in self.terms.items():
            ne = [0] * n
            for i, x in enumerate(e):
                if x:
                    ne[src[i]] = x
            out[tuple(ne)] = c
        return MultiPoly._raw(vs, out)

    def extend_vars(self, names) -> "MultiPoly":
        """Append the given names that are not yet variables."""
        return self.with_vars(self.vars + tuple(v for v in names if v not in self.vars))

    def drop_vars(self, names) -> "MultiPoly":
        """Remove variables that appear in no term."""
        gone = set(names)
        return self.with_vars(tuple(v for v in self.vars if v not in gone))

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self, other
        merged = self.vars + tuple(v for v in other.vars if v not in self.vars)
        return self.with_vars(merged), other.with_vars(merged)

    def _promote(self, value):
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, COEFF_TYPES):
            return MultiPoly.constant(value, self.vars)
        return None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        p, q = self._aligned(o)
        out = dict(p.terms)
        for e, c in q.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return MultiPoly._raw(p.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, COEFF_TYPES):
            c = _coerce_coeff(other)
            if not c:
                return MultiPoly._raw(self.vars, {})
            return MultiPoly._raw(self.vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        p, q = self._aligned(other)
        a, b = p.terms, q.terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e = tuple(map(_add, ea, eb))
                c = ca * cb
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._raw(p.vars, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, COEFF_TYPES):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return MultiPoly._raw(self.vars, {e: c / scalar for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        p, q = self._aligned(o)
        return p.terms == q.terms

    __hash__ = None  # mathematical equality across variable lists

    # -- calculus and substitution ----------------------------------------------

    def partial(self, name: str, order: int = 1) -> "MultiPoly":
        """Iterated formal partial derivative (no factorial normalisation)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if name not in self.vars:
            raise DomainError(f"unknown variable {name!r}; have {self.vars}")
        i = self.vars.index(name)
        terms = self.terms
        for _ in range(order):
            nxt = {}
            for e, c in terms.items():
                k = e[i]
                if k:
                    ne = e[:i] + (k - 1,) + e[i + 1:]
                    nxt[ne] = c * k
            terms = nxt
            if not terms:
                break
        return MultiPoly._raw(self.vars, dict(terms))

    def subs(self, assignment: dict) -> "MultiPoly":
        """Simultaneous substitution of scalars or polynomials for variables."""
        for v in assignment:
            if v not in self.vars:
                raise DomainError(f"unknown variable {v!r}; have {self.vars}")
        if not assignment:
            return self
        values = {}
        for v, val in assignment.items():
            if isinstance(val, COEFF_TYPES):
                val = MultiPoly.constant(val)
            values[v] = val
        keep = tuple(v for v in self.vars if v not in values)
        result = MultiPoly.zero(keep)
        pow_cache: dict[tuple[str, int], MultiPoly] = {}
        for e, c in self.terms.items():
            piece = MultiPoly._raw(
                keep,
                {tuple(x for v, x in zip(self.vars, e) if v in keep): c})
            for v, x in zip(self.vars, e):
                if x and v in values:
                    key = (v, x)
                    pw = pow_cache.get(key)
                    if pw is None:
                        pw = values[v] ** x
                        pow_cache[key] = pw
                    piece = piece * pw
            result = result + piece
        return result

    def dehomogenize(self, keep: str, set_one: str) -> "MultiPoly":
        """Set ``set_one`` to 1, producing a polynomial in ``keep`` (plus any
        coefficient variables)."""
        if keep not in self.vars or set_one not in self.vars:
            raise DomainError(
                f"variables ({keep!r}, {set_one!r}) not both present in {self.vars}")
        return self.subs({set_one: 1}).drop_vars([set_one])

    def exact_div(self, divisor: "MultiPoly"):
        """Exact quotient self/divisor, or None when not divisible.

        Graded-lex division: the moment a leading term of the remainder is
        not divisible by the divisor's leading term, no exact quotient exists.
        """
        d = self._promote(divisor)
        if d is None:
            raise TypeError("divisor must be a polynomial or scalar")
        if d.is_zero():
            raise DomainError("division by the zero polynomial")
        p, q = self._aligned(d)
        if not p.terms:
            return MultiPoly._raw(p.vars, {})
        qlead = max(q.terms, key=_grlex)
        qlc = q.terms[qlead]
        qrest = [(e, c) for e, c in q.terms.items() if e != qlead]
        rem = dict(p.terms)
        quot = {}
        heap = [(-sum(e), tuple(-x for x in e)) for e in rem]
        heapq.heapify(heap)
        while heap:
            _, ne = heapq.heappop(heap)
            e = tuple(-x for x in ne)
            c = rem.pop(e, None)
            if c is None:
                continue
            diff = tuple(map(int.__sub__, e, qlead))
            if any(x < 0 for x in diff):
                return None
            coef = c / qlc
            quot[diff] = coef
            for qe, qc in qrest:
                te = tuple(map(_add, diff, qe))
                s = rem.get(te)
                if s is None:
                    v = -coef * qc
                    if v:
                        rem[te] = v
                        heapq.heappush(heap, (-sum(te), tuple(-x for x in te)))
                else:
                    s = s - coef * qc
                    if s:
                        rem[te] = s
                    else:
                        del rem[te]
        return MultiPoly._raw(p.vars, quot)

    # -- structure ---------------------------------------------------------------

    def coefficients_in(self, names) -> dict:
        """Group terms by their exponents in ``names``; values are polynomials
        in the remaining variables."""
        idx = [self.vars.index(v) for v in names]
        keep = tuple(v for v in self.vars if v not in set(names))
        kidx = [self.vars.index(v) for v in keep]
        out: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in idx)
            rest = tuple(e[i] for i in kidx)
            out.setdefault(key, {})[rest] = c
        return {k: MultiPoly._raw(keep, t) for k, t in out.items()}

    def binary_coefficients(self, xy, degree: int | None = None) -> list:
        """Coefficient list [c_0, ..., c_d] of a binary form, where term i
        multiplies x^(d-i) * y^i.  ``degree`` overrides the observed degree
        (needed when leading coefficients vanish on specialisation)."""
        x, y = xy
        d = self.homogeneous_degree_in(xy)
        if degree is None:
            if d < 0:
                raise DomainError("zero polynomial needs an explicit degree")
            degree = d
        elif d > degree:
            raise DomainError(f"form has degree {d} > declared {degree}")
        by_exp = self.coefficients_in(xy)
        keep = tuple(v for v in self.vars if v not in (x, y))
        coeffs = []
        for i in range(degree + 1):
            coeffs.append(by_exp.get((degree - i, i), MultiPoly.zero(keep)))
        return coeffs

    # -- rendering ------------------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if x == 1 else f"{v}^{x}"
                for v, x in zip(self.vars, e) if x)
            if isinstance(c, Cyclotomic):
                body = f"({c})" + (f"*{mono}" if mono else "")
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                a = -c if c < 0 else c
                if not mono:
                    body = str(a)
                elif a == 1:
                    body = mono
                else:
                    body = f"{a}*{mono}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars}, {self})"
