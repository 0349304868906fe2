"""Discriminants of multilinear forms on the supported small formats.

Square matrices go through exact fraction-free elimination, entry by entry on
items, so constants and polynomials mix in one matrix.  The genuinely
multidimensional formats (2x2x2, 2x2x3 in any axis order, 2x2x2x2) are
computed by one Schlaefli step: the hyperdeterminant F(u) of the pencil
sum_j u_j * A_j of the slices along the longest axis is a form in u, and its
discriminant is the result.  F is written, not built in fresh variables, from the
mixed determinants m(A, B) = a0 b3 + b0 a3 - a1 b2 - b1 a2 of the 2x2 slices at
the bottom (m(A, A) = 2 det A): a binary quadratic or quartic, or for three
slices the ternary quadratic with Hessian H_ij = m(A_i, A_j).  Cayley's degree-4
expansion of 2x2x2 cross-checks the step.  Entries and coefficients are items
(``poly.lower``): a constant as its value (``int``, ``Fraction``, ``Cyclotomic``),
anything else as a polynomial; each public function lowers its input once and
lifts its result once.

Binary discriminants of degree 2, 3 and 4 use the classical closed forms in
the coefficients.  Degrees 5 to 32, and resultants of forms of any degrees
m >= n, use one m x m hybrid Bezout-Sylvester matrix, which for m = n is
Cayley's Bezout matrix.  In tests the Sylvester matrix is its oracle.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import DomainError, UnsupportedFormatError
from .poly import MultiPoly, lift, lower, merge_vars
from .scalars import canonical, exact_quotient
from .tensor import Tensor, check_shape


# hyperdeterminant degree by sorted shape; a k x k matrix (k <= 6) has degree k
_DEGREES = {(2, 2, 2): 4, (2, 2, 3): 6, (2, 2, 2, 2): 24}


def _shape_str(shape) -> str:
    return "x".join(str(n) for n in shape)


@functools.lru_cache(maxsize=None)
def hyperdet_degree(shape: tuple[int, ...]) -> int:
    """Degree in the entries of the hyperdeterminant on format ``shape`` (a tuple).

    A hyperdeterminant exists iff no dimension exceeds the sum of the others
    (counting each as n - 1); DomainError otherwise, for shape () and squares above 6x6.
    Admissible formats outside the implemented set raise UnsupportedFormatError.
    """
    dims = check_shape(shape)
    if not dims:
        raise DomainError("hyperdeterminant does not exist for the 0-dimensional format []")
    slack = sum(n - 1 for n in dims)
    if any(2 * (n - 1) > slack for n in dims):
        raise DomainError(f"hyperdeterminant does not exist for format {_shape_str(shape)}")
    if len(dims) == 2 and dims[0] == dims[1]:
        k = dims[0]
        if k > 6:
            raise DomainError(f"square determinant limited to 6x6, got {k}x{k}")
        return k
    degree = _DEGREES.get(tuple(sorted(dims)))
    if degree is None:
        raise UnsupportedFormatError(f"format {_shape_str(shape)} unsupported")
    return degree


# -- exact determinants ------------------------------------------------------


def _det(m):
    """Determinant of a nonempty square list-of-lists ``m`` (overwritten) of items, mixed
    freely: cofactors for n == 3, else Bareiss elimination, entry by entry on the items,
    which for n <= 2 divides nothing.  A zero column gives 0."""
    n = len(m)
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    sign, prev = 1, None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = elt if prev is None else _quotient(elt, prev)
        prev = m[k][k]
    return m[-1][-1] if sign == 1 else -m[-1][-1]


def _quotient(a, b):
    """The exact quotient a / b of items: by a value through ``exact_quotient``, by a
    polynomial through ``exact_div``, a value ``a`` lifted onto b's variables first."""
    if type(b) is not MultiPoly:
        return exact_quotient(a, b)
    quot = (a if type(a) is MultiPoly else lift(a, b.vars)).exact_div(b)
    if quot is None:  # cannot happen for true minors
        raise ArithmeticError("fraction-free elimination lost exactness")
    return quot


def det_rows(rows) -> MultiPoly:
    """Determinant of a square list-of-lists of polynomials or scalars, on the union of
    the polynomials' variables; the empty matrix gives 1.  Elimination runs entry by entry
    on items: a constant as its value (``int``, ``Fraction``, ``Cyclotomic``), anything
    else as a polynomial, and every division is exact, so it never leaves the ring.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("determinant needs a square matrix")
    merged = merge_vars(p.vars for row in rows for p in row if type(p) is MultiPoly)
    return lift(_det([list(map(lower, row)) for row in rows]) if n else 1, merged)


def det_square(t: Tensor) -> MultiPoly:
    """Determinant of a k x k matrix of polynomials, k <= 6."""
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DomainError(f"not a square matrix: shape {_shape_str(t.shape)}")
    return hyperdet(t)  # refuses squares above 6x6


# -- binary and ternary discriminants -----------------------------------------


# Resultant matrices have O(d^2) entries that grow with the coefficients;
# refuse forms beyond this degree before building one.
_MAX_DEGREE = 32


def _resultant(avec, bvec):
    """Res of item vectors of degrees m >= n, the determinant of their hybrid
    Bezout-Sylvester matrix.

    Cayley's symmetric recurrence B[i][j] = B[i-1][j+1] + p[j+1]*q[i] - p[i]*q[j+1]
    runs on f and x^(m-n) g, with p[k], q[k] the coefficients of x^k.  The rows
    x^j g for j < m - n, then the last n rows of B reversed, have determinant
    Res(f, g), sign included (Sylvester 1853; Gelfand, Kapranov, Zelevinsky 1994,
    ch. 12).  Column j holds the coefficient of x^j; for m = n this is B reversed.
    """
    m, n = len(avec) - 1, len(bvec) - 1
    p, q = avec[::-1], [0] * (m - n) + bvec[::-1]
    b = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry = p[j + 1] * q[i] - p[i] * q[j + 1]
            b[i][j] = b[j][i] = entry + b[i - 1][j + 1] if i and j + 1 < m else entry
    shifted = [[0] * j + bvec[::-1] + [0] * (m - n - 1 - j) for j in range(m - n)]
    return _det(shifted + b[::-1][:n])


def _closed_form_disc(cs):
    """Discriminant from the coefficient list [c0, ..., cd] of a form of degree 2, 3 or 4,
    polynomials or scalars alike."""
    if len(cs) == 3:
        a, b, c = cs
        return b * b - 4 * (a * c)
    if len(cs) == 4:
        a, b, c, d = cs
        bc, ad = b * c, a * d
        return bc * (bc + 18 * ad) - 27 * (ad * ad) - 4 * (a * c * c * c + d * b * b * b)
    a, b, c, d, e = cs
    inv_i = 12 * (a * e) - 3 * (b * d) + c * c
    inv_j = c * (72 * (a * e) + 9 * (b * d) - 2 * (c * c)) - 27 * (a * d * d + e * b * b)
    return exact_quotient(4 * inv_i ** 3 - inv_j * inv_j, 27)


def _bounded_degree(what: str, d: int, least: int) -> int:
    if not least <= d <= _MAX_DEGREE:
        raise DomainError(
            f"{what} needs degree >= {least}, limited to degree {_MAX_DEGREE}; got {d}")
    return d


def binary_form_disc(f: MultiPoly, xy=("x", "y"), degree: int | None = None) -> MultiPoly:
    """Discriminant of a binary form of degree d:
    (-1)^(d(d-1)/2) * Res(df/dx, df/dy) / d^(d-2).

    Degrees 2-4 use the classical closed forms in the coefficients
    c0*x^d + c1*x^(d-1)*y + ...: b^2 - 4ac, the cubic discriminant, and
    (4I^3 - J^2)/27 with the quartic invariants I and J (Salmon).  Degrees 5
    to 32 take the resultant of the partials on their (d-1) x (d-1) Bezout
    matrix; higher degrees are refused.
    Coefficients of ``f`` may involve further variables.  The degree is that
    of ``f`` in ``xy`` (``x^3*y`` is a quartic); ``degree``, when given, must
    equal it, and only the zero form needs it.
    """
    # bound a declared degree before a list of degree + 1 coefficients is built
    if degree is not None:
        degree = _bounded_degree("discriminant", operator.index(degree), 2)
    items, rest = f._binary_items(xy, degree)
    d = _bounded_degree("discriminant", len(items) - 1, 2)
    if d > 4:  # the coefficients of df/dx and df/dy, read off those of f
        res = _resultant([(d - i) * c for i, c in enumerate(items[:-1])],
                         [i * c for i, c in enumerate(items) if i])
        disc = exact_quotient(res * (-1) ** (d * (d - 1) // 2), d ** (d - 2))
    else:
        disc = _closed_form_disc(items)
    return lift(disc, rest)


def ternary_quadratic_disc(q: MultiPoly, uvw=("u0", "u1", "u2")) -> MultiPoly:
    """Hessian determinant of a quadratic in ``uvw``: H_ii = 2*c(u_i^2), H_ij = c(u_i*u_j)."""
    c, rest, degs = q.extend_vars(uvw)._table(uvw)
    if (d := max(degs, default=-1)) not in (2, -1):
        raise DomainError(f"expected a quadratic in {tuple(uvw)}, got degree {d}")
    n = range(len(uvw))
    h = [[canonical(c.get(tuple(map((i, j).count, n)), 0) * (2 if i == j else 1)) for j in n]
         for i in n]
    return lift(_det(h) if h else 1, rest)


# -- hyperdeterminants ----------------------------------------------------------


def cayley_hyperdet_222(t: Tensor) -> MultiPoly:
    """Closed-form degree-4 hyperdeterminant of a 2x2x2 tensor.

    Independent of the Schlaefli step; used to cross-check it.
    """
    if t.shape != (2, 2, 2):
        raise DomainError(f"expected shape 2x2x2, got {_shape_str(t.shape)}")
    a = dict(zip(t.indices(), t._items))
    sq = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
          + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
          + a[0, 1, 1] ** 2 * a[1, 0, 0] ** 2)
    pairs = (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
             + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
             + a[0, 0, 1] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0]
             + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1])
    diag = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
            + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    hd = sq - 2 * pairs + 4 * diag
    return lift(hd, t.vars)


@functools.lru_cache(maxsize=None)
def _split(shape):
    """The slice shape along the longest axis (ties to the highest index, so 2x2x3 in any
    axis order splits its 3-axis) and a getter of each slice's row-major offsets, per format."""
    axis = len(shape) - 1 - shape[::-1].index(max(shape))
    sub, n, inner = shape[:axis] + shape[axis + 1:], shape[axis], math.prod(shape[axis + 1:])
    return sub, [operator.itemgetter(*(i for i in range(math.prod(shape)) if i // inner % n == j))
                 for j in range(n)]


def _mixed(a, b):
    """The mixed determinant m(A, B) of 2x2 slices, so that m(A, A) = 2 det A."""
    return a[0] * b[3] + b[0] * a[3] - a[1] * b[2] - b[1] * a[2]


def _pencil(a, b):
    """The coefficients of det(A + tB) = det A + m(A, B) t + det B t^2 for 2x2 slices."""
    return [a[0] * a[3] - a[1] * a[2], _mixed(a, b), b[0] * b[3] - b[1] * b[2]]


def _schlaefli(shape, xs):
    """Hyperdeterminant of the row-major items ``xs`` on a supported ``shape``."""
    if len(shape) == 2:
        return _det([xs[i:i + shape[0]] for i in range(0, len(xs), shape[0])])
    sub, getters = _split(shape)
    parts = [get(xs) for get in getters]
    if len(parts) == 3:  # F(u) = det(sum u_i A_i) has the Hessian H_ij = m(A_i, A_j)
        return _det([[_mixed(a, b) for b in parts] for a in parts])
    if sub == (2, 2):
        return _closed_form_disc(_pencil(*parts))
    # halves a0, a1 and b0, b1 of A and B: F(1, t) = q^2 - 4pr, with q = m(a0 + t b0, a1 + t b1)
    (a0, a1), (b0, b1) = ([get(p) for get in _split(sub)[1]] for p in parts)
    p, r = _pencil(a0, b0), _pencil(a1, b1)
    q = _mixed(a0, a1), _mixed(a0, b1) + _mixed(b0, a1), _mixed(b0, b1)
    f = [0] * 5
    for i in range(3):
        for j in range(3):
            f[i + j] += q[i] * q[j] - 4 * (p[i] * r[j])
    return _closed_form_disc(f)


def hyperdet(t: Tensor) -> MultiPoly:
    """Hyperdeterminant of a tensor on a supported format.

    k x k matrices give the determinant; 2x2x2, 2x2x3 (any axis order) and
    2x2x2x2 go through one Schlaefli step, written from the mixed determinants
    of their 2x2 slices.  Raises as ``hyperdet_degree`` does on formats outside that set.
    """
    hyperdet_degree(t.shape)
    return lift(_schlaefli(t.shape, t._items), t.vars)
