"""Sparse multivariate polynomials over exact scalars.

A :class:`MultiPoly` is an ordered variable tuple plus a mapping from
exponent vectors to nonzero coefficients: ``int`` when integral, otherwise
``Fraction`` or :class:`Cyclotomic`.  All
operations are pure and exact; instances are immutable by convention.
Canonical ordering of terms is graded lexicographic with respect to the
variable tuple, which makes equality structural and rendering canonical.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add as _add, index as _index, sub as _sub

from .errors import DomainError
from .scalars import Cyclotomic, canonical, exact_quotient, power

COEFF_TYPES = (int, Fraction, Cyclotomic)


def _grlex(exps: tuple[int, ...]):
    return (sum(exps), exps)


def merge_vars(tuples) -> tuple[str, ...]:
    """The union of variable tuples, each name where it first appears."""
    return tuple(dict.fromkeys(v for vs in tuples for v in vs))


def form_vars(names) -> tuple[str, ...]:
    """Form variables as a tuple, refused when a name repeats."""
    if len(set(vs := tuple(names))) != len(vs):
        raise DomainError(f"form variables must be distinct, got {vs}")
    return vs


def binary_vars(xy) -> tuple[str, ...]:
    """The form variables of a binary form, refused unless there are exactly two."""
    if len(xy := form_vars(xy)) != 2:
        raise DomainError(f"a binary form needs exactly two form variables, got {len(xy)}")
    return xy


def lower(x):
    """The item of a polynomial or scalar: the canonical value of a constant (0 for zero,
    integral values as ``int``), else the polynomial itself.  With ``lift`` this is the
    one place where a constant crosses between the two forms."""
    if type(x) is not MultiPoly:
        return x if type(x) is int else _coerce_coeff(x)
    if len(t := x.terms) > 1 or t and any(next(iter(t))):
        return x
    return next(iter(t.values()), 0)


def lift(x, variables) -> "MultiPoly":
    """An item as a polynomial on ``variables``, which cover the variables it uses."""
    return x.with_vars(variables) if type(x) is MultiPoly else MultiPoly.constant(x, variables)


def _coerce_coeff(c):
    if isinstance(c, int):
        return int(c)  # a bool becomes a plain int
    if isinstance(c, (Fraction, Cyclotomic)):
        return canonical(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _addmul(out: dict, a: dict, b: dict) -> None:
    """Add the product of the term dicts ``a`` and ``b`` into ``out`` in place:
    the one loop that multiplies terms.  Integral sums are stored as ``int``."""
    if len(a) < len(b):
        a, b = b, a
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(map(_add, ea, eb))
            s = out.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
            else:
                del out[e]


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
            if any(type(x) is not int or x < 0 for x in e):  # one scan; sort out the rare case
                if not all(isinstance(x, int) for x in e):
                    raise TypeError(f"exponents must be integers, got {e}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                e = tuple(map(int, e))  # a bool becomes a plain int
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
        return cls._raw(vs, {exps: 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _position(self, name: str) -> int:
        if name not in self.vars:
            raise DomainError(f"unknown variable {name!r}; have {self.vars}")
        return self.vars.index(name)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree_in(self, names) -> int:
        """Common degree of all terms in the given variables; error if mixed."""
        idx = [self._position(v) for v in names]
        degs = {sum(e[i] for i in idx) for e in self.terms}
        if len(degs) > 1:
            raise DomainError(
                f"polynomial is not homogeneous in {tuple(names)}: degrees {sorted(degs)}")
        return degs.pop() if degs else -1

    def uses(self, name: str) -> bool:
        i = self._position(name)
        return any(e[i] for e in self.terms)

    def as_scalar(self):
        """The value of a constant polynomial (0 for the zero polynomial);
        a rational value is returned as a ``Fraction``."""
        if type(value := lower(self)) is MultiPoly:
            raise DomainError(f"not a constant polynomial: {self}")
        return Fraction(value) if type(value) is int else value

    # -- variable plumbing ---------------------------------------------------

    def with_vars(self, variables) -> "MultiPoly":
        """Reindex onto a variable tuple that must cover every used variable."""
        vs = tuple(variables)
        own = self.vars
        if vs == own:
            return self
        n, m = len(own), len(vs)
        if vs[:n] == own:  # names only appended
            pad = (0,) * (m - n)
            return MultiPoly._raw(vs, {e + pad: c for e, c in self.terms.items()})
        if own[:m] == vs and not any(any(e[m:]) for e in self.terms):  # unused suffix dropped
            return MultiPoly._raw(vs, {e[:m]: c for e, c in self.terms.items()})
        pos = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.vars if v not in pos and self.uses(v)]
        if missing:
            raise ValueError(f"target variables {vs} drop used variables {missing}")
        out = {}
        src = [pos.get(v) for v in self.vars]
        for e, c in self.terms.items():
            ne = [0] * m
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
        merged = merge_vars((self.vars, other.vars))
        return self.with_vars(merged), other.with_vars(merged)

    def _promote(self, value):
        if type(value) is MultiPoly:
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
                out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
            else:
                del out[e]
        return MultiPoly._raw(p.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._promote(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._promote(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        if type(other) is not MultiPoly:  # isinstance against Fraction, an ABC, is slow
            if not isinstance(other, COEFF_TYPES):
                return NotImplemented
            c = _coerce_coeff(other)
            terms = self.terms if c else {}
            return MultiPoly._raw(self.vars, {e: canonical(v * c) for e, v in terms.items()})
        p, q = self._aligned(other)
        out = {}
        _addmul(out, p.terms, q.terms)
        return MultiPoly._raw(p.vars, out)

    __rmul__ = __mul__

    @staticmethod
    def dot(variables, left, right) -> "MultiPoly":
        """The sum of left[j] * right[j] over polynomials, as a polynomial in
        ``variables``, which must cover every variable the operands use."""
        vs = tuple(variables)
        out = {}
        for p, q in zip(left, right, strict=True):
            _addmul(out, (p if p.vars == vs else p.with_vars(vs)).terms,
                    (q if q.vars == vs else q.with_vars(vs)).terms)
        return MultiPoly._raw(vs, out)

    def __truediv__(self, scalar):
        if not isinstance(scalar, COEFF_TYPES):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return MultiPoly._raw(self.vars, {e: exact_quotient(c, scalar)
                                          for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if (n := _index(n)) < 0:
            raise ValueError("exponent must be a non-negative integer")
        return power(self, n, MultiPoly.constant(1, self.vars))

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        p, q = self._aligned(o)
        return p.terms == q.terms

    __hash__ = None  # mathematical equality across variable lists

    # -- calculus and re-keying -------------------------------------------------

    def derivative(self, names, orders) -> "MultiPoly":
        """Mixed partial, orders[j] times by names[j] (no factorial normalisation), in one
        pass: each exponent drops by its order, each coefficient gains perm(e_i, o_i)."""
        drop = [0] * len(self.vars)
        for name, order in zip(names, orders, strict=True):
            if (order := _index(order)) < 0:
                raise ValueError("derivative order must be >= 0")
            drop[self._position(name)] += order
        want = [(i, order) for i, order in enumerate(drop) if order]
        out = {}
        for e, c in self.terms.items():
            f = 1
            for i, order in want:
                f *= math.perm(e[i], order)  # 0 once the order exceeds the exponent
            if f:
                out[tuple(map(_sub, e, drop))] = canonical(c * f)
        return MultiPoly._raw(self.vars, out)

    def partial(self, name: str, order: int = 1) -> "MultiPoly":
        """Iterated formal partial derivative (no factorial normalisation)."""
        return self.derivative((name,), (order,))

    def dehomogenize(self, keep: str, set_one: str) -> "MultiPoly":
        """Set ``set_one`` to 1, producing a polynomial in ``keep`` (plus any
        coefficient variables): its exponent is dropped, and the coefficients
        of keys that then coincide are summed."""
        if keep == set_one or keep not in self.vars or set_one not in self.vars:
            raise DomainError(
                f"variables ({keep!r}, {set_one!r}) not two distinct ones of {self.vars}")
        groups = self.coefficients_in((set_one,)).values()
        return sum(groups, MultiPoly.zero(v for v in self.vars if v != set_one))

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
            coef = exact_quotient(c, qlc)
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

    def binary_coefficients(self, xy, degree: int | None = None) -> list:
        """Coefficient list [c_0, ..., c_d] of a binary form in ``xy``, where
        c_i multiplies x^(d-i) * y^i and is a polynomial in the other variables.

        A nonzero form must be homogeneous in ``xy``, of degree ``degree`` when
        that is given; the zero form has no degree of its own and needs it.
        """
        xy = binary_vars(xy)
        f = self.extend_vars(xy)
        d = f.homogeneous_degree_in(xy)
        if degree is None:
            if d < 0:
                raise DomainError("zero polynomial needs an explicit degree")
            degree = d
        elif d not in (degree, -1):
            raise DomainError(f"expected a binary form of degree {degree}, got degree {d}")
        groups = f.coefficients_in(xy)
        zero = MultiPoly.zero(v for v in f.vars if v not in xy)
        return [groups.get((degree - i, i), zero) for i in range(degree + 1)]

    def coefficients_in(self, names) -> dict:
        """Each exponent tuple in ``names`` that occurs, mapped to its coefficient: the
        polynomial in the other variables that multiplies it."""
        idx = [self._position(v) for v in names]
        rest = [i for i in range(len(self.vars)) if i not in idx]
        groups = {}
        for e, c in self.terms.items():
            groups.setdefault(tuple(e[i] for i in idx), {})[tuple(e[i] for i in rest)] = c
        keep = tuple(self.vars[i] for i in rest)
        return {k: MultiPoly._raw(keep, t) for k, t in groups.items()}

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
