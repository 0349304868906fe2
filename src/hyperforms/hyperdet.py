"""Discriminants of multilinear forms on the supported small formats.

Square matrices go through exact fraction-free elimination.  The genuinely
multidimensional formats (2x2x2, 2x2x3 in any axis order, 2x2x2x2) are
computed by one recursive Schlaefli step: contract the longest axis with
fresh auxiliary variables, take the hyperdeterminant of the resulting pencil
(a determinant, or again a Schlaefli step), then take the discriminant of
that form in the auxiliary variables.  A hardcoded degree-4 expansion for
2x2x2 serves as an independent cross-check of the recursion.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import DomainError, UnsupportedFormatError
from .poly import MultiPoly
from .tensor import Tensor, check_shape, fresh_names


class Format(enum.Enum):
    SQUARE = "square-matrix"
    SUPPORTED = "supported-hyperdet"
    ADMISSIBLE_UNIMPLEMENTED = "admissible-unimplemented"
    NONEXISTENT = "nonexistent"


_SUPPORTED_SORTED = ([2, 2, 2], [2, 2, 3], [2, 2, 2, 2])


def classify_format(shape) -> Format:
    """Classify a tensor shape for hyperdeterminant purposes.

    A hyperdeterminant exists iff no dimension exceeds the sum of the others
    (counting each as n - 1).
    """
    shape = check_shape(shape)
    slack = sum(n - 1 for n in shape)
    if any(2 * (n - 1) > slack for n in shape):
        return Format.NONEXISTENT
    if len(shape) == 2 and shape[0] == shape[1]:
        return Format.SQUARE
    if sorted(shape) in _SUPPORTED_SORTED:
        return Format.SUPPORTED
    return Format.ADMISSIBLE_UNIMPLEMENTED


def _shape_str(shape) -> str:
    return "x".join(str(n) for n in shape)


# -- exact determinants ------------------------------------------------------


def _align_rows(rows):
    merged: tuple[str, ...] = ()
    for row in rows:
        for p in row:
            merged = merged + tuple(v for v in p.vars if v not in merged)
    return [[p.with_vars(merged) for p in row] for row in rows], merged


def det_rows(rows) -> MultiPoly:
    """Determinant of a square list-of-lists of polynomials.

    Cofactor expansion for n <= 3; Bareiss fraction-free elimination with
    exact division otherwise, so entries never leave the polynomial ring.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("determinant needs a square matrix")
    m, merged = _align_rows(rows)
    if n == 0:
        return MultiPoly.constant(1)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(merged)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                if prev is not None:
                    quot = elt.exact_div(prev)
                    if quot is None:  # cannot happen for true minors
                        raise ArithmeticError("fraction-free elimination lost exactness")
                    elt = quot
                m[i][j] = elt
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def det_square(t: Tensor) -> MultiPoly:
    """Determinant of a k x k matrix of polynomials, k <= 6."""
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DomainError(f"not a square matrix: shape {_shape_str(t.shape)}")
    k = t.shape[0]
    if k > 6:
        raise DomainError(f"square determinant limited to 6x6, got {k}x{k}")
    rows = [[t[(i, j)] for j in range(k)] for i in range(k)]
    return det_rows(rows)


# -- binary and ternary discriminants -----------------------------------------


def _sylvester_rows(avec, bvec, m: int, n: int):
    """Sylvester matrix rows for coefficient vectors of degrees m and n."""
    size = m + n
    zero = MultiPoly.zero()
    rows = []
    for shift in range(n):
        rows.append([zero] * shift + list(avec) + [zero] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([zero] * shift + list(bvec) + [zero] * (size - shift - n - 1))
    return rows


def binary_form_disc(f: MultiPoly, xy=("x", "y"), degree: int | None = None) -> MultiPoly:
    """Discriminant of a binary form of degree d:
    (-1)^(d(d-1)/2) * Res(df/dx, df/dy) / d^(d-2).

    Coefficients of ``f`` may involve further variables.  ``degree`` fixes the
    formal degree when leading coefficients may have specialised to zero.
    """
    x, y = xy
    f = f.extend_vars(xy)
    observed = f.homogeneous_degree_in(xy)
    d = observed if degree is None else degree
    if d < 2:
        raise DomainError(f"discriminant needs degree >= 2, got {d}")
    if observed > d:
        raise DomainError(f"form has degree {observed} > declared {d}")
    fx = f.partial(x)
    fy = f.partial(y)
    avec = fx.binary_coefficients(xy, d - 1)
    bvec = fy.binary_coefficients(xy, d - 1)
    res = det_rows(_sylvester_rows(avec, bvec, d - 1, d - 1))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return (res * sign) / Fraction(d) ** (d - 2)


def ternary_quadratic_disc(q: MultiPoly, uvw=("u0", "u1", "u2")) -> MultiPoly:
    """Determinant of the matrix of second partials of a ternary quadratic."""
    q = q.extend_vars(uvw)
    if q.homogeneous_degree_in(uvw) not in (2, -1):
        raise DomainError(
            f"expected a quadratic in {tuple(uvw)}, got degree {q.homogeneous_degree_in(uvw)}")
    return det_rows([[q.partial(a).partial(b).drop_vars(uvw) for b in uvw] for a in uvw])


# -- hyperdeterminants ----------------------------------------------------------


def cayley_hyperdet_222(t: Tensor) -> MultiPoly:
    """Closed-form degree-4 hyperdeterminant of a 2x2x2 tensor.

    Independent of the Schlaefli step; used to cross-check it.
    """
    if t.shape != (2, 2, 2):
        raise DomainError(f"expected shape 2x2x2, got {_shape_str(t.shape)}")
    a = {idx: t[idx] for idx in t.indices()}
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
    return sq - 2 * pairs + 4 * diag


def _schlaefli(t: Tensor) -> MultiPoly:
    # The longest axis goes last, ties to the highest index, so 2x2x3 in any
    # axis order contracts its 3-axis.
    last = max(range(t.ndim), key=lambda i: (t.shape[i], i))
    if last != t.ndim - 1:
        t = t.transpose([i for i in range(t.ndim) if i != last] + [last])
    u = fresh_names(t.vars, t.shape[-1])
    pencil = t.contract_axis(t.ndim - 1, u)
    form = det_square(pencil) if pencil.ndim == 2 else _schlaefli(pencil)
    if len(u) == 3:
        return ternary_quadratic_disc(form, u)
    # a 2x2 determinant is a quadratic in u, a 2x2x2 hyperdeterminant a quartic
    return binary_form_disc(form, u, degree=2 * (t.ndim - 2))


def hyperdet(t: Tensor) -> MultiPoly:
    """Hyperdeterminant of a tensor on a supported format.

    k x k matrices give the determinant; 2x2x2, 2x2x3 (any axis order) and
    2x2x2x2 go through the recursive Schlaefli step.  Raises DomainError when no
    hyperdeterminant exists for the format and UnsupportedFormatError for
    admissible formats outside the implemented set.
    """
    fmt = classify_format(t.shape)
    if fmt is Format.NONEXISTENT:
        raise DomainError(
            f"hyperdeterminant does not exist for format {_shape_str(t.shape)}")
    if fmt is Format.ADMISSIBLE_UNIMPLEMENTED:
        raise UnsupportedFormatError(f"format {_shape_str(t.shape)} unsupported")
    if fmt is Format.SQUARE:
        return det_square(t)
    return _schlaefli(t)
