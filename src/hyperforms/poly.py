"""Sparse multivariate polynomials over exact scalars.

A :class:`MultiPoly` is an ordered variable tuple plus a mapping from
exponent vectors to nonzero coefficients: ``int`` when integral, otherwise
``Fraction`` or :class:`Cyclotomic`.  All
operations are pure and exact; instances are immutable by convention.
Canonical ordering of terms is graded lexicographic with respect to the
variable tuple, which makes equality structural and rendering canonical.
The text is written by ``scalars.render``, and every variable tuple a polynomial
or tensor stores passes one rule, :func:`readable_vars`, so the text reads back.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from fractions import Fraction
from operator import add as _add, index as _index, sub as _sub

from .errors import DomainError
from .scalars import Cyclotomic, canonical, exact_quotient, power, render

COEFF_TYPES = (int, Fraction, Cyclotomic)
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a variable name, as the parser reads names
ZETA = re.compile(r"zeta([1-9][0-9]*)$")  # the root of unity zeta<m>, never a variable
# The parser's limit on exponents and degrees, before powers and products are expanded;
# binary forms and iterated gradients are refused above it before a list is built.
MAX_EXPONENT = 64


def _grlex(exps: tuple[int, ...]):
    return (sum(exps), exps)


def merge_vars(tuples) -> tuple[str, ...]:
    """The union of variable tuples, each name where it first appears."""
    return tuple(dict.fromkeys(v for vs in tuples for v in vs))


def readable_vars(names) -> tuple[str, ...]:
    """Variable names as a tuple that printed text reads back with, else ValueError: distinct
    ASCII identifiers as ``parse_poly`` reads names, none the root of unity ``zeta<m>``."""
    return _readable(tuple(names))


@functools.lru_cache(maxsize=1024)  # bounded: tuples come from users
def _readable(vs: tuple) -> tuple[str, ...]:
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    for v in vs:
        if not isinstance(v, str) or not NAME.fullmatch(v):
            raise ValueError(f"variable name {v!r} is not an ASCII identifier")
        if ZETA.match(v):
            raise ValueError(f"variable name {v!r} is reserved for roots of unity")
    return tuple(map(str.__str__, vs))  # plain str, as a hit on an equal cached tuple gives


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


def _degrees(names, exps, homogeneous=True) -> set:
    """The degrees of exponent tuples ``exps`` in ``names``, one only when ``homogeneous``."""
    if len(degs := set(map(sum, exps))) > 1 and homogeneous:
        raise DomainError(f"polynomial is not homogeneous in {names}: degrees {sorted(degs)}")
    return degs


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
        vs = readable_vars(variables)
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
        return cls._raw(readable_vars(variables), {})

    @classmethod
    def constant(cls, value, variables=()) -> "MultiPoly":
        vs = _readable(tuple(variables))  # the cached rule itself: lift runs this per entry
        c = _coerce_coeff(value)
        return cls._raw(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def variable(cls, name: str, variables=None) -> "MultiPoly":
        vs = readable_vars((name,) if variables is None else variables)
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
        idx = list(map(self._position, names := tuple(names)))
        degs = _degrees(names, (tuple(e[i] for i in idx) for e in self.terms))
        return max(degs, default=-1)

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
        if (vs := tuple(variables)) == self.vars:
            return self
        vs = _readable(vs)
        pos = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.vars if v not in pos and self.uses(v)]
        if missing:
            raise ValueError(f"target variables {vs} drop used variables {missing}")
        out = {}
        src = [pos.get(v) for v in self.vars]
        for e, c in self.terms.items():
            ne = [0] * len(vs)
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
        vs = readable_vars(variables)
        out = {}
        for p, q in zip(left, right, strict=True):
            _addmul(out, p.with_vars(vs).terms, q.with_vars(vs).terms)
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
        heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
        heapq.heapify(heap)
        while heap:
            e = heapq.heappop(heap)[2]
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
                if s is None:  # a product of nonzero field elements, so never zero
                    rem[te] = -coef * qc
                    heapq.heappush(heap, (-sum(te), tuple(-x for x in te), te))
                else:
                    s = s - coef * qc
                    if s:
                        rem[te] = s
                    else:
                        del rem[te]
        return MultiPoly._raw(p.vars, quot)

    # -- structure ---------------------------------------------------------------

    def _table(self, names, homogeneous=True):
        """The terms grouped by their exponents in ``names`` in one pass: each group's coefficient
        as an item (``lower``), the other variables, and the degrees in ``names`` seen, which
        must be one when ``homogeneous``."""
        names = tuple(names)
        idx = [self._position(v) for v in names]
        rest = [i for i in range(len(self.vars)) if i not in idx]
        keep = tuple(self.vars[i] for i in rest)
        if names == self.vars:  # the exponent is the key, the coefficient the item
            table = dict(self.terms)
        else:
            groups = {}
            for e, c in self.terms.items():
                groups.setdefault(tuple(e[i] for i in idx), {})[tuple(e[i] for i in rest)] = c
            table = {k: lower(MultiPoly._raw(keep, t)) for k, t in groups.items()}
        return table, keep, _degrees(names, table, homogeneous)

    def _binary_items(self, xy, degree=None):
        """The coefficient items [c_0, ..., c_d] of a binary form in ``xy`` and the other
        variables, as ``binary_coefficients`` describes them."""
        xy = binary_vars(xy)
        if degree is not None and (degree := _index(degree)) < 0:
            raise DomainError(f"degree must be >= 0, got {degree}")
        table, rest, degs = self.extend_vars(xy)._table(xy)
        d = max(degs, default=-1)
        if degree is None:
            if d < 0:
                raise DomainError("zero polynomial needs an explicit degree")
            degree = d
        elif d not in (degree, -1):
            raise DomainError(f"expected a binary form of degree {degree}, got degree {d}")
        if degree > MAX_EXPONENT:
            raise DomainError(f"degree must be <= {MAX_EXPONENT}, got {degree}")
        return [table.get((degree - i, i), 0) for i in range(degree + 1)], rest

    def binary_coefficients(self, xy, degree: int | None = None) -> list:
        """Coefficient list [c_0, ..., c_d] of a binary form in ``xy``, where
        c_i multiplies x^(d-i) * y^i and is a polynomial in the other variables.

        A nonzero form must be homogeneous in ``xy``, of degree ``degree`` when
        that is given; the zero form has no degree of its own and needs it.  A degree
        above ``MAX_EXPONENT`` is refused before any coefficient is listed.
        """
        items, rest = self._binary_items(xy, degree)
        return [lift(c, rest) for c in items]

    def coefficients_in(self, names) -> dict:
        """Each exponent tuple in ``names`` that occurs, mapped to its coefficient: the
        polynomial in the other variables that multiplies it, lifted from the one-pass table
        (``_table``) that the invariants and polarisations read as items."""
        table, rest, _ = self._table(names, homogeneous=False)
        return {k: lift(c, rest) for k, c in table.items()}

    # -- rendering ------------------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def __str__(self) -> str:
        return render((c, zip(self.vars, e)) for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars}, {self})"
