"""Skew decomposition of hypercubic tensors and Gramm forms of vector tuples.

Permuting the slots of a d-tensor acts on each orbit of index multisets; the
discrete Fourier transform along an orbit (with respect to a primitive
d!-th root of unity and the lexicographic ordinal of each arrangement)
splits the tensor space into d! projector images.  Gramm forms pair a
d-linear form with an m-tuple of vectors and take the hyperdeterminant of
the resulting m^d tensor, carrying a fractional exponent that is never
evaluated: comparisons cross-power the bases.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError
from .hyperdet import hyperdet, hyperdet_degree
from .poly import MultiPoly, lower
from .scalars import (RATIONAL_TYPES, Cyclotomic, as_rational, canonical, cyclotomic_polynomial,
                      exact_quotient, scalar_pow, zeta)
from .tensor import Tensor


class Orbit(namedtuple("Orbit", ("multiset", "arrangements"))):
    """An index multiset with its arrangements in ascending lexicographic order."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.arrangements)


class OrbitTable:
    """All index multisets of {0..dim-1}^d with their ordered arrangements."""

    def __init__(self, d: int, dim: int):
        if not 2 <= d <= 4:
            raise DomainError(f"orbit tables support 2 <= d <= 4, got {d}")
        if not 1 <= dim <= 4:
            raise DomainError(f"orbit tables support dim <= 4, got {dim}")
        self.d = d
        self.dim = dim
        self.orbits: list[Orbit] = []
        self.ordinal: dict[tuple[int, ...], tuple[int, int]] = {}
        self.flat: list[tuple[int, ...]] = []  # each orbit's arrangements as row-major offsets
        for ms in itertools.combinations_with_replacement(range(dim), d):
            arrs = tuple(sorted(set(itertools.permutations(ms))))
            self.orbits.append(Orbit(ms, arrs))
            self.flat.append(tuple(sum(i * dim ** p for p, i in enumerate(a[::-1])) for a in arrs))
            oi = len(self.orbits) - 1
            for j, arr in enumerate(arrs):
                self.ordinal[arr] = (oi, j)
        assert sum(o.size for o in self.orbits) == dim ** d

    def admissible(self, k: int, orbit: Orbit) -> bool:
        """Whether the orbit supports a nonzero eps^k-skew component:
        the weight eps^(k*s) must equal 1, i.e. d! divides k*s."""
        return (k * orbit.size) % factorial(self.d) == 0


@lru_cache(maxsize=None)
def orbit_ord(d: int, dim: int) -> OrbitTable:
    """The orbit table of the dim^d tensors, built once per shape and shared
    by every caller, so read-only; OrbitTable's bounds keep the cache small."""
    return OrbitTable(d, dim)


@lru_cache(maxsize=None)
def _unity_powers(m: int) -> tuple:
    """(eps^0, ..., eps^(m-1)) for eps = zeta(m), built once per order; +-1 as ``int``."""
    eps = zeta(m)
    return tuple(canonical(scalar_pow(eps, j)) for j in range(m))


def _hypercubic_dims(t: Tensor) -> tuple[int, int]:
    dims = set(t.shape)
    if len(dims) != 1:
        raise DomainError(f"tensor is not hypercubic: shape {t.shape}")
    return t.ndim, dims.pop()


def _component(d: int, k) -> int:
    """The index k of an eps^k-skew component of a d-tensor, refused unless 0 <= k < d!."""
    k, fact = operator.index(k), factorial(d)
    if not 0 <= k < fact:
        raise DomainError(f"component index must satisfy 0 <= k < {fact}, got {k}")
    return k


def project_k(t: Tensor, k: int) -> Tensor:
    """Projection onto the eps^k-skew component.

    On each admissible orbit this is the orbit DFT: the output over the
    arrangement with ordinal j is eps^(k*j) times the averaged
    eps^(-k*j')-weighted input; inadmissible orbits are annihilated.  The
    powers of eps are read from one table per order, and the orbits from one
    table per shape, both cached across calls.  A tensor of constants whose
    cyclotomic entries all have order d! runs on its values: as eps^d! = 1, an
    orbit's weighted sum is one vector over eps^0 .. eps^(d!-1), reduced once;
    each output is that residue times eps^(k*j), summed over the reduced powers
    of eps, and divided by the orbit size once per coefficient.
    """
    d, dim = _hypercubic_dims(t)
    k = _component(d, k)
    fact = factorial(d)
    table = orbit_ord(d, dim)
    powers = _unity_powers(fact)
    items = t._items
    # a polynomial, or a root of unity of another order, meets eps in generic arithmetic,
    # which mixes or refuses it
    generic = any(type(v) is MultiPoly or type(v) is Cyclotomic and v.order != fact
                  for v in items)
    deg = len(cyclotomic_polynomial(fact)) - 1
    entries = [0] * dim ** d
    for orbit, flat in zip(table.orbits, table.flat):
        if not table.admissible(k, orbit):
            continue
        s = orbit.size
        if not generic:
            acc = [0] * fact
            for j, f in enumerate(flat):
                v = items[f]
                for e, c in enumerate(v.coeffs) if type(v) is Cyclotomic else ((0, v),):
                    acc[(e - k * j) % fact] += c
            acc = Cyclotomic._make(fact, acc) if any(acc[1:]) else acc[0]
            acc = acc.coeffs if type(acc) is Cyclotomic else (canonical(acc),)
            for j, f in enumerate(flat):
                out = [0] * deg
                for e, c in enumerate(acc):
                    if c:
                        p = powers[(e + k * j) % fact]
                        for i, pc in enumerate(p.coeffs if type(p) is Cyclotomic else (p,)):
                            out[i] += c * pc
                entries[f] = (Cyclotomic(fact, tuple(exact_quotient(c, s) for c in out))
                              if any(out[1:]) else exact_quotient(out[0], s))
            continue
        base = 0
        for j, f in enumerate(flat):
            base = base + items[f] * powers[(-k * j) % fact]
        base = exact_quotient(base, s)
        for j, f in enumerate(flat):
            entries[f] = lower(base * powers[(k * j) % fact])
    return Tensor._built(t.shape, entries, t.vars)


def projector_trace(d: int, dim: int, k: int) -> Fraction:
    """Exact trace of the eps^k projector on the dim^d tensor space.

    The projectors are idempotent, so the trace equals the rank.  Computed
    honestly by projecting every basis tensor and reading its diagonal item.
    """
    shape, size = (dim,) * d, dim ** d
    total = Fraction(0)
    for f in range(size):  # the basis tensor with a 1 at row-major offset f
        diag = project_k(Tensor(shape, [int(g == f) for g in range(size)]), k)._items[f]
        if not isinstance(diag, RATIONAL_TYPES):
            raise ArithmeticError("projector diagonal must be rational")
        total += diag
    return total


# -- Gramm forms -----------------------------------------------------------------


def _vectors(vectors, dim: int) -> list:
    """The vectors as lists of rationals, refused unless there is one at least and
    each has dimension ``dim``."""
    vecs = [[as_rational(c) for c in v] for v in vectors]
    if any(len(v) != dim for v in vecs):
        raise DomainError(f"vectors must have dimension {dim}")
    if not vecs:
        raise DomainError("need at least one vector")
    return vecs


def gramm_tensor(form: Tensor, vectors) -> Tensor:
    """Pair a d-linear form with an m-tuple: entry (i_1, ..., i_d) is the
    full contraction of the form against the selected vectors, computed by
    contracting one slot at a time with the whole tuple."""
    d, dim = _hypercubic_dims(form)
    return form._act(range(d), _vectors(vectors, dim))


class GrammValue(namedtuple("GrammValue", ("base", "exponent"))):
    """A hyperdeterminant base together with the fractional power m/(d*deg D).

    A named tuple ``(base, exponent)``: ``==`` and ``hash`` compare the pair.
    The root is never extracted; ``same_value`` decides equality of the two
    values by cross-powering the bases to a common integral exponent.
    """

    __slots__ = ()

    def same_value(self, other: "GrammValue") -> bool:
        p, q = self.exponent.numerator, self.exponent.denominator
        r, s = other.exponent.numerator, other.exponent.denominator
        return self.base ** (p * s) == other.base ** (r * q)

    def __repr__(self) -> str:
        return f"GrammValue(base={self.base}, exponent={self.exponent})"


def _exponent(d: int, m: int) -> Fraction:
    """m/(d*deg D), D the hyperdeterminant of the m^d Gramm tensor."""
    return Fraction(m, d * hyperdet_degree((m,) * d))


def _gramm(form: Tensor, vectors, k=None) -> GrammValue:
    d, dim = _hypercubic_dims(form)
    if k is not None:
        k = _component(d, k)
    vecs = _vectors(vectors, dim)
    exponent = _exponent(d, len(vecs))
    if len(vecs) < d:
        return GrammValue(MultiPoly.zero(form.vars), exponent)
    t = form._act(range(d), vecs)
    return GrammValue(hyperdet(t if k is None else project_k(t, k)), exponent)


def gramm_form(form: Tensor, vectors) -> GrammValue:
    """Hyperdeterminant of the Gramm tensor with its homogenising exponent.

    The vectors are checked first; fewer of them than slots gives the identically-zero
    form, recorded as a zero base without computing a hyperdeterminant.
    """
    return _gramm(form, vectors)


def skew_gramm(form: Tensor, vectors, k: int) -> GrammValue:
    """Gramm form of the eps^k-skew part of the Gramm tensor; a zero base, as for
    ``gramm_form``, with fewer vectors than slots."""
    return _gramm(form, vectors, k)
